(* The traced run's layer passes. Each pass calls the layers' public
   functions from here, one call at a time on the calling domain, with
   a span around each call. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Counters = Pf_obs.Counters
module Workload = Pf_workloads.Workload
module Run = Pf_uarch.Run

let now = Unix.gettimeofday

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sum = List.fold_left ( +. ) 0.

(* ---- engine samples ---- *)

type engine_sample = {
  cls : string;  (** policy name *)
  cycles : int;
  instrs : int;
  secs : float;
  words : float;  (** words allocated during the call *)
}

let engine_classes = [ "superscalar"; "postdoms"; "rec_pred"; "dmt"; "adaptive" ]

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let simulate samples ?config prep policy =
  let reg = Counters.create () in
  let w0 = allocated () in
  let t0 = now () in
  let m = Run.simulate ~counters:reg ?config prep ~policy in
  let secs = now () -. t0 in
  let words = allocated () -. w0 in
  samples :=
    { cls = Pf_core.Policy.name policy;
      cycles = m.Pf_uarch.Metrics.cycles;
      instrs = m.Pf_uarch.Metrics.instructions;
      secs;
      words }
    :: !samples;
  (m, reg, secs)

(* ---- the serial replay ----

   Every spec goes through the calls Sweep.execute and the serve
   scheduler make for it: workload lookup, digest, cache probe, and on a
   miss the window's preparation (once per window), the simulation and
   the cache store. [setup] specs are replayed first and feed only the
   prepare and engine numbers; lookup, digest and cache numbers are
   taken over [stream]. *)

type replay = {
  wall : float;  (** wall seconds of the stream part *)
  stream_spans : Spans.t;
  setup_spans : Spans.t;
  lookups : int;
  hits : int;
  engine : engine_sample list;
  windows : (Workload.t * int) list;  (** distinct windows prepared *)
  records : (Sweep.spec * Sweep.run) list;  (** stream results *)
}

let replay ~traced ~dir ~setup ~stream =
  let cache = Run_cache.create ~dir () in
  let preps = Hashtbl.create 16 in
  let prep_order = ref [] in
  let engine = ref [] in
  let hits = ref 0 in
  let one spans i (s : Sweep.spec) =
    let span name f = if traced then Spans.record spans ~req:i name f else f () in
    span "op" (fun () ->
        let wl =
          match span "workloads.find" (fun () -> Pf_workloads.Suite.find s.workload) with
          | Some wl -> wl
          | None -> invalid_arg ("unknown workload " ^ s.workload)
        in
        let window = Option.value s.window ~default:wl.Workload.window in
        let config = Sweep.resolve_config s in
        let policy = Pf_core.Policy.name s.policy in
        let digest =
          span "run_cache.digest" (fun () ->
              Run_cache.digest ~workload:s.workload ~window
                ~fast_forward:wl.Workload.fast_forward ~policy ~label:s.label
                ~config)
        in
        match span "run_cache.find" (fun () -> Run_cache.find cache ~digest) with
        | Some j ->
            incr hits;
            Sweep.run_of_json j
        | None ->
            let key = (s.workload, window) in
            let prep =
              match Hashtbl.find_opt preps key with
              | Some (_, p) -> p
              | None ->
                  let p =
                    span "prepare" (fun () ->
                        Run.prepare wl.Workload.program ~setup:wl.Workload.setup
                          ~fast_forward:wl.Workload.fast_forward ~window)
                  in
                  Hashtbl.add preps key (wl, p);
                  prep_order := key :: !prep_order;
                  p
            in
            let metrics, reg, secs =
              span "engine" (fun () -> simulate engine ~config prep s.policy)
            in
            let run =
              { Sweep.workload = s.workload;
                label = s.label;
                policy;
                config;
                window;
                instructions = Pf_trace.Tracer.length prep.Run.trace;
                static_spawns = List.length prep.Run.all_spawns;
                wall_s = secs;
                metrics;
                counters = Counters.to_alist reg }
            in
            span "run_cache.store" (fun () ->
                Run_cache.store cache ~digest (Sweep.run_to_json run));
            run)
  in
  let setup_spans = Spans.create () in
  List.iteri (fun i s -> ignore (one setup_spans i s)) setup;
  hits := 0;
  let stream_spans = Spans.create () in
  let t0 = now () in
  let records = List.mapi (fun i s -> (s, one stream_spans i s)) stream in
  let wall = now () -. t0 in
  { wall;
    stream_spans;
    setup_spans;
    lookups = List.length stream;
    hits = !hits;
    engine = !engine;
    windows =
      List.rev_map (fun k -> (fst (Hashtbl.find preps k), snd k)) !prep_order;
    records }

(* ---- prepare, stage by stage ----

   The stages Run.prepare chains, each timed on its own over the
   replay's distinct windows. *)

type stages = {
  machine_ms : float;
  capture_ms : float;
  capture_ns_per_instr : float;  (** per instruction the capture executes
                                     (fast-forward plus window) *)
  depinfo_ms : float;
  flatten_ms : float;
  occurrence_ms : float;
  classify_ms : float;
  windows : int;
}

let stages windows =
  let rows =
    List.map
      (fun ((wl : Workload.t), window) ->
        let t0 = now () in
        let m = Pf_isa.Machine.create wl.program in
        wl.setup m;
        let t1 = now () in
        let tr = Pf_trace.Tracer.capture m ~fast_forward:wl.fast_forward ~window in
        let t2 = now () in
        Pf_trace.Depinfo.compute tr;
        let t3 = now () in
        ignore (Sys.opaque_identity (Pf_trace.Flat_trace.of_trace tr));
        let t4 = now () in
        ignore (Sys.opaque_identity (Pf_trace.Occurrence.build tr));
        let t5 = now () in
        ignore (Sys.opaque_identity (Pf_core.Classify.spawn_points wl.program));
        let t6 = now () in
        let executed = wl.fast_forward + Pf_trace.Tracer.length tr in
        [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3; t5 -. t4; t6 -. t5;
           float_of_int executed |])
      windows
  in
  let col k = List.map (fun r -> r.(k)) rows in
  let ms k = 1000. *. mean (col k) in
  { machine_ms = ms 0;
    capture_ms = ms 1;
    capture_ns_per_instr =
      (let n = sum (col 6) in
       if n = 0. then 0. else 1e9 *. sum (col 1) /. n);
    depinfo_ms = ms 2;
    flatten_ms = ms 3;
    occurrence_ms = ms 4;
    classify_ms = ms 5;
    windows = List.length rows }

(* engine classes the replay never simulated get one run per window, so
   every class is measured on every workload's windows *)
let fill_engine_classes samples windows =
  let missing =
    List.filter
      (fun cls -> not (List.exists (fun s -> s.cls = cls) samples))
      engine_classes
  in
  let acc = ref samples in
  if missing <> [] then
    List.iter
      (fun ((wl : Workload.t), window) ->
        let prep =
          Run.prepare wl.program ~setup:wl.setup ~fast_forward:wl.fast_forward
            ~window
        in
        List.iter
          (fun cls -> ignore (simulate acc prep (Gen.policy cls)))
          missing)
      windows;
  !acc

type engine_summary = {
  ns_per_cycle : float;
  ns_per_instr : float;
  alloc_words_per_instr : float;
  sim_cycles : int;
  by_class : (string * (float * float)) list;  (** ns/cycle, ns/instr *)
}

let engine_summary samples =
  let ratio l =
    let secs = sum (List.map (fun s -> s.secs) l) in
    let cycles = float_of_int (List.fold_left (fun a s -> a + s.cycles) 0 l) in
    let instrs = float_of_int (List.fold_left (fun a s -> a + s.instrs) 0 l) in
    let per x = if x = 0. then 0. else 1e9 *. secs /. x in
    (per cycles, per instrs)
  in
  let c, i = ratio samples in
  let instrs = List.fold_left (fun a s -> a + s.instrs) 0 samples in
  { ns_per_cycle = c;
    ns_per_instr = i;
    alloc_words_per_instr =
      (if instrs = 0 then 0.
       else sum (List.map (fun s -> s.words) samples) /. float_of_int instrs);
    sim_cycles = List.fold_left (fun a s -> a + s.cycles) 0 samples;
    by_class =
      List.map
        (fun cls -> (cls, ratio (List.filter (fun s -> s.cls = cls) samples)))
        engine_classes }

(* ---- sweep ---- *)

type sweep_pass = {
  sw_wall : float;
  sw_busy : float;  (** summed prepare and simulate spans *)
  sw_stats : Sweep.exec_stats option;
  sw_runs : Sweep.run list;
}

(* one Sweep.execute per window group, walls and spans summed *)
let sweep ~jobs ~dir specs =
  let groups = Gen.by_window specs in
  let passes =
    List.mapi
      (fun i group ->
        let cache = Run_cache.create ~dir:(Filename.concat dir (string_of_int i)) () in
        let stats = ref None in
        let t0 = now () in
        let runs, prepared =
          Sweep.execute ~cache ~on_stats:(fun s -> stats := Some s) ~jobs group
        in
        let wall = now () -. t0 in
        let busy =
          sum (List.map (fun pw -> pw.Sweep.pw_prepare_s) prepared)
          +. sum (List.map (fun (r : Sweep.run) -> r.wall_s) runs)
        in
        (wall, busy, !stats, runs))
      groups
  in
  let add (a : Sweep.exec_stats) (b : Sweep.exec_stats) =
    { Sweep.cached_runs = a.cached_runs + b.cached_runs;
      simulated_runs = a.simulated_runs + b.simulated_runs;
      batched_runs = a.batched_runs + b.batched_runs;
      batch_count = a.batch_count + b.batch_count;
      prepare_ms = a.prepare_ms +. b.prepare_ms }
  in
  { sw_wall = sum (List.map (fun (w, _, _, _) -> w) passes);
    sw_busy = sum (List.map (fun (_, b, _, _) -> b) passes);
    sw_stats =
      List.fold_left
        (fun acc (_, _, s, _) ->
          match (acc, s) with
          | Some a, Some b -> Some (add a b)
          | None, s | s, None -> s)
        None passes;
    (* back in [specs] order *)
    sw_runs =
      (let tbl = Hashtbl.create 64 in
       List.iter2
         (fun group (_, _, _, runs) ->
           List.iter2 (fun s r -> Hashtbl.replace tbl (Gen.key s) r) group runs)
         groups passes;
       List.map (fun s -> Hashtbl.find tbl (Gen.key s)) specs) }

(* ---- scheduler, in process ----

   Scheduler.run on every setup and stream spec, one at a time, then
   once more on every distinct spec (all hits by then). A hit's latency
   is the scheduler's whole hit path; a fresh miss's latency minus the
   window preparation it triggered (the prepare_ms gauge delta) and its
   simulation (the record's wall_s) is what it spent queued and
   polling. *)

type scheduler_pass = {
  hit_us : float list;
  wait_ms : float list;
  checked : (Sweep.spec * Sweep.run) list;
  errors : int;
}

let scheduler ~dir ~setup ~stream =
  let counters = Counters.create () in
  let cache = Run_cache.create ~dir () in
  let sched = Pf_serve.Scheduler.create ~cache ~jobs:1 ~counters () in
  let prepare_ms () =
    match List.assoc_opt "prepare_ms" (Pf_serve.Scheduler.stats_fields sched) with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  let hit_us = ref [] and wait_ms = ref [] and checked = ref [] and errors = ref 0 in
  let call i s =
    let p0 = prepare_ms () in
    let t0 = now () in
    let resp = Pf_serve.Scheduler.run sched (Client.run_request ~id:i s) in
    let lat = now () -. t0 in
    let dp = prepare_ms () -. p0 in
    match resp with
    | Pf_serve.Protocol.Run_reply r -> (
        match Sweep.run_of_json r.run with
        | run ->
            checked := (s, run) :: !checked;
            if r.cached then hit_us := (1e6 *. lat) :: !hit_us
            else if not r.coalesced then
              wait_ms := ((1000. *. (lat -. run.wall_s)) -. dp) :: !wait_ms
        | exception _ -> incr errors)
    | _ -> incr errors
  in
  Fun.protect
    ~finally:(fun () -> Pf_serve.Scheduler.shutdown sched)
    (fun () ->
      List.iteri call setup;
      List.iteri call stream;
      List.iteri call (Gen.unique (setup @ stream)));
  { hit_us = !hit_us; wait_ms = !wait_ms; checked = !checked; errors = !errors }

(* ---- protocol ---- *)

(* mean microseconds to decode each request line and to encode each
   reply (decoded first, untimed) back to its line *)
let protocol samples =
  let decode =
    List.map
      (fun (s : Client.sample) ->
        let t0 = now () in
        ignore (Sys.opaque_identity (Pf_serve.Protocol.request_of_line s.line));
        1e6 *. (now () -. t0))
      samples
  in
  let encode =
    List.filter_map
      (fun (s : Client.sample) ->
        match Option.map Pf_serve.Protocol.response_of_line s.reply with
        | Some (Ok resp) ->
            let t0 = now () in
            ignore
              (Sys.opaque_identity
                 (Json.to_string (Pf_serve.Protocol.response_to_json resp)));
            Some (1e6 *. (now () -. t0))
        | _ -> None)
      samples
  in
  (mean decode, mean encode)
