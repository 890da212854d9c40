(** Common shape of every simulated benchmark.

    A workload is a recipe producing VM thread programs plus the devices
    they open; the interpreter turns it into a trace.  [threads] requests
    a worker count (benchmarks spawn their own helper threads on top when
    their structure demands it), [scale] stretches the input size, and
    [seed] drives every random choice. *)

type t = {
  programs : unit Aprof_vm.Program.t list;  (** initial threads *)
  devices : (string * Aprof_vm.Device.t) list;
}

type suite = Parsec | Omp | App | Micro

type spec = {
  name : string;
  suite : suite;
  description : string;
  make : threads:int -> scale:int -> seed:int -> t;
}

val suite_name : suite -> string

(** [run ?scheduler ?max_events w ~seed] executes a workload under the
    interpreter with its devices installed. *)
val run :
  ?scheduler:Aprof_vm.Scheduler.policy ->
  ?max_events:int ->
  t ->
  seed:int ->
  Aprof_vm.Interp.result

(** [run_spec spec ~threads ~scale ~seed] builds and runs in one step. *)
val run_spec :
  ?scheduler:Aprof_vm.Scheduler.policy ->
  ?max_events:int ->
  spec ->
  threads:int ->
  scale:int ->
  seed:int ->
  Aprof_vm.Interp.result

(** [run_batched w ~seed ~tool] executes the workload in the
    interpreter's streaming mode ({!Aprof_vm.Interp.run_batched}): no
    trace is materialized; [tool] gets the routine table and sees every
    emission batch as it fills. *)
val run_batched :
  ?scheduler:Aprof_vm.Scheduler.policy ->
  ?max_events:int ->
  t ->
  seed:int ->
  tool:
    (Aprof_trace.Routine_table.t -> Aprof_trace.Event.Batch.t -> unit) ->
  Aprof_vm.Interp.result

(** [run_spec_batched] builds and runs batched in one step. *)
val run_spec_batched :
  ?scheduler:Aprof_vm.Scheduler.policy ->
  ?max_events:int ->
  spec ->
  threads:int ->
  scale:int ->
  seed:int ->
  tool:
    (Aprof_trace.Routine_table.t -> Aprof_trace.Event.Batch.t -> unit) ->
  Aprof_vm.Interp.result
