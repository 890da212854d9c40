type t = {
  programs : unit Aprof_vm.Program.t list;
  devices : (string * Aprof_vm.Device.t) list;
}

type suite = Parsec | Omp | App | Micro

type spec = {
  name : string;
  suite : suite;
  description : string;
  make : threads:int -> scale:int -> seed:int -> t;
}

let suite_name = function
  | Parsec -> "parsec"
  | Omp -> "omp2012"
  | App -> "app"
  | Micro -> "micro"

let config_of ?(scheduler = Aprof_vm.Scheduler.Round_robin { slice = 64 })
    ?(max_events = 50_000_000) w ~seed =
  ignore (w.programs : unit Aprof_vm.Program.t list);
  {
    Aprof_vm.Interp.scheduler;
    seed;
    devices = w.devices;
    max_events;
    reuse_freed_memory = false;
  }

let run ?scheduler ?max_events w ~seed =
  Aprof_vm.Interp.run (config_of ?scheduler ?max_events w ~seed) w.programs

let run_spec ?scheduler ?max_events spec ~threads ~scale ~seed =
  run ?scheduler ?max_events (spec.make ~threads ~scale ~seed) ~seed

let run_batched ?scheduler ?max_events w ~seed ~tool =
  Aprof_vm.Interp.run_batched
    (config_of ?scheduler ?max_events w ~seed)
    w.programs ~tool

let run_spec_batched ?scheduler ?max_events spec ~threads ~scale ~seed ~tool =
  run_batched ?scheduler ?max_events (spec.make ~threads ~scale ~seed) ~seed
    ~tool
