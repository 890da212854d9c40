(** Identity of a profiling run, carried by saved profiles and fitted
    model stores so that downstream comparisons ({!Cost_diff}) can refuse
    to diff runs that were never comparable in the first place.

    Two runs are comparable when they executed the same workload at the
    same scale with the same thread count under the same scheduler; the
    seed is deliberately free — comparing differently-seeded runs of one
    configuration is exactly the regression-watch use case.

    Dumps carry it as one [meta] record ({!write}, {!read}) on the
    {!Aprof_util.Line_record} layout, which owns the field and line
    rules: nothing is trimmed, so a scheduler name keeps its blanks. *)

type t = {
  workload : string;
  seed : int;
  scale : int;
  threads : int;
  scheduler : string;  (** {!Aprof_vm.Scheduler.policy_name} rendering *)
}

(** [write w t] adds the record
    [meta,<workload>,<seed>,<scale>,<threads>,<scheduler>] shared by
    {!Profile_io} and the model stores; the scheduler is the verbatim
    last field ({!Aprof_util.Line_record}).
    @raise Invalid_argument when the workload holds a comma, or either
    name a line break. *)
val write : Aprof_util.Line_record.writer -> t -> unit

(** [read f] reads the fields of a {!write} record. *)
val read : Aprof_util.Line_record.fields -> t

(** [compatible ~old_run ~new_run] is [Ok ()] when the two runs may be
    diffed: equal workload, scale, threads and scheduler.  [Error]
    carries a human-readable mismatch description. *)
val compatible : old_run:t -> new_run:t -> (unit, string) result

(** One-line rendering for reports. *)
val to_string : t -> string
