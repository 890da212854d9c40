(** Shared-memory communication characterization — the direction the
    paper's conclusion sketches: "characterizing how multi-threaded
    applications scale their work and how they communicate via shared
    memory at routine activation rather than thread granularity".

    This profiler tracks, for every induced first-read, *who produced the
    value*: the writing thread and the routine that was executing the
    write (or the kernel).  Aggregated, this yields:

    - a thread-to-thread communication matrix (how many values flowed
      from writer thread to reader thread);
    - a producer/consumer routine matrix (which routine's writes feed
      which routine's reads), the routine-granularity view;
    - per-cell communication degree statistics (how many distinct thread
      pairs communicated through each location).

    Implementation: two extra global shadows hold the last writer's
    thread id + 1 and routine id + 1 per cell, alongside a write-stamp
    shadow; a read by [t] of a cell whose latest write is newer than
    [t]'s latest access is a communication event, credited to the edge
    (writer routine, reader routine) and (writer thread, reader thread).
    Kernel transfers appear as writer id {!kernel_id}. *)

(** Pseudo thread/routine id standing for the OS kernel. *)
val kernel_id : int

type edge = { from_id : int; to_id : int; values : int }

type report = {
  thread_matrix : edge list;  (** sorted by decreasing [values] *)
  routine_matrix : edge list;  (** sorted by decreasing [values] *)
  communicating_cells : int;  (** cells that carried >= 1 communication *)
  single_pair_cells : int;
      (** of those, cells used by exactly one (writer, reader) thread
          pair — the "limited interaction" pattern of Kalibera et al.
          that the paper cites *)
  total_values : int;
}

type t

val create : unit -> t

(** [on_batch t b] processes every packed event of [b] in order. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

val report : t -> report

(** [pp ~thread_name ~routine_name ppf report] renders both matrices. *)
val pp :
  routine_name:(int -> string) -> Format.formatter -> report -> unit
