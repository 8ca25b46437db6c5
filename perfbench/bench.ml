(* The repository benchmark. perfbench/run.py builds this executable
   and runs it as

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   from the root of a checkout. The last line of stdout is one JSON
   object {correct, attempted, failed, metrics}; the lines before it
   restate every metric for a reader. perfbench/README.md describes the
   workloads, the metrics and the baseline layer findings. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Server = Pf_serve.Server

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let tiny = ref false
let record_expect = ref false
let check_inputs = ref false
let daemon_mode = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  figure-grid | serve-hit | serve-miss");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  1: the traced per-layer run");
      ("--size", Arg.String (fun s -> tiny := s = "tiny"),
       "full|tiny  tiny: one small round (self-test)");
      ("--record-expectation", Arg.Set record_expect,
       "  rewrite perfbench/expected/figure_grid.txt from a fresh sweep");
      ("--check-inputs", Arg.Set check_inputs,
       "  check the generated inputs of many seeds (self-test)");
      ("--daemon", Arg.Set daemon_mode,
       "  serve in the working directory until a shutdown request (internal)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

let now = Unix.gettimeofday
(* the sweeps' worker domains: 2, or 1 on a single-core machine *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---- statistics ---- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ---- scratch directories, all under .perfbench/ in the checkout ---- *)

let root = Sys.getcwd ()
let base = Filename.concat root (Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()))
let counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

let fresh_dir tag =
  incr counter;
  let d = Filename.concat base (Printf.sprintf "%s-%d" tag !counter) in
  mkdir_p d;
  d

(* ---- the daemon ----

   Each daemon is a child process of this executable ([--daemon])
   calling Server.start with its default configuration, so its heap,
   garbage collector and memory high-water mark are its own. It runs in a fresh directory that is also this
   process's working directory for the daemon's life: the socket and the
   daemon's relative default cache and store directories land there and
   start empty. *)

type daemon = { pid : int; dir : string }

let socket = "s.sock"
let live = ref []

(* no daemon outlives the benchmark, whatever way it ends *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let daemon_main () =
  let server = Server.start (Server.default_config ~socket_path:socket) in
  Server.run server;
  let oc = open_out "peak_rss_mb" in
  Printf.fprintf oc "%.17g\n" (peak_rss_mb ());
  close_out oc

(* spawn a daemon and return once its socket accepts connections *)
let boot () =
  let dir = fresh_dir "daemon" in
  Sys.chdir dir;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let deadline = now () +. 30. in
  let rec wait () =
    match Client.connect socket with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
        if now () > deadline then failwith "daemon did not start";
        Unix.sleepf 0.0005;
        wait ()
  in
  wait ();
  { pid; dir }

(* stop the daemon with the shutdown op and return its peak resident
   memory in MB *)
let shutdown d =
  (try
     let c = Client.connect socket in
     Fun.protect
       ~finally:(fun () -> Client.close c)
       (fun () ->
         ignore
           (Client.rpc c
              (Json.to_string
                 (Pf_serve.Protocol.request_to_json
                    (Pf_serve.Protocol.Shutdown Json.Null)))))
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  let rss =
    try
      let ic = open_in "peak_rss_mb" in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> float_of_string (input_line ic))
    with Sys_error _ | End_of_file | Failure _ -> 0.
  in
  Sys.chdir root;
  rm_rf d.dir;
  rss

(* ---- results ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* check one serve reply against the reference records *)
let check_reply ?(want_hit = false) refs (spec : Sweep.spec) (s : Client.sample) =
  match Option.map Client.decode s.reply with
  | Some (Ok r) ->
      let ok = Check.matches refs spec r.record && ((not want_hit) || r.cached) in
      if not ok then
        Printf.eprintf "perfbench: wrong reply for %s/%s@%d\n%!" spec.workload
          spec.label (Gen.window_of spec);
      check ok;
      Some r
  | Some (Error msg) ->
      Printf.eprintf "perfbench: error reply for %s/%s: %s\n%!" spec.workload
        spec.label msg;
      check false;
      None
  | None ->
      Printf.eprintf "perfbench: no reply for %s/%s\n%!" spec.workload spec.label;
      check false;
      None

let emit metrics =
  (* one readable line per metric, then the result object *)
  List.iter
    (fun (name, v, unit_, note) ->
      Printf.printf "  %-34s %14.6g %-12s %s\n" name v unit_ note)
    metrics;
  Printf.printf "  failed_ratio %d/%d = %g\n" tally.failed tally.attempted
    (if tally.attempted = 0 then 0.
     else float_of_int tally.failed /. float_of_int tally.attempted);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, v, unit_, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed (String.concat ", " fields)

(* Peak resident memory after the first round. The 5.1 runtime keeps
   the heap it has grown, so the high-water mark keeps creeping up with
   every further round; read after a fixed amount of work it is
   comparable between runs of different lengths. *)
let first_round_rss = ref 0.

(* every set-up and round starts from a freshly collected heap, so
   the garbage of one round is not paid for in the next *)
let settle () = Gc.compact ()

(* One measured round: the operations it completed, the instructions
   it freshly simulated, its wall seconds, its latency samples (ms), and
   the share of the CPU time it demanded that the hypervisor stole
   (Steal) *)
type round = { ops : int; instrs : int; wall : float; lat_ms : float list; stolen : float }

(* [with_stolen f] runs [f ()], which returns a round, and records the
   share stolen while it ran *)
let with_stolen f =
  let a = Steal.read () in
  let r = f () in
  { r with stolen = Steal.share a (Steal.read ()) }

(* Run [round] until the measuring time is spent: a round starts only if
   the rounds so far suggest it ends in time. At least [min_rounds].
   [between k] runs before round [k] > 0, outside the round's time.
   Each round is logged on stderr. *)
let rounds ?(min_rounds = 1) ?(between = ignore) round =
  let start = now () in
  let rec go k acc =
    if k > 0 then between k;
    let r = with_stolen (fun () -> round k) in
    if k = 0 then first_round_rss := peak_rss_mb ();
    Printf.eprintf "perfbench: round %d wall_s %.6f p50_ms %.6f p90_ms %.6f p99_ms %.6f stolen %.4f\n%!"
      k r.wall (percentile r.lat_ms 50.) (percentile r.lat_ms 90.) (percentile r.lat_ms 99.)
      r.stolen;
    let acc = r :: acc in
    let walls = List.map (fun r -> r.wall) acc in
    if (not !tiny) && (k + 1 < min_rounds || now () -. start +. median walls <= !seconds)
    then go (k + 1) acc
    else List.rev acc
  in
  go 0 []

(* Set-up: build every workload, generate the inputs, and (for the
   serve workloads) boot the daemon and pre-populate it. A set-up is
   short next to a round, so it is repeated, each time from a freshly
   collected heap, and reported as a median. Some repetitions run
   before the first round and the rest between rounds, so that, like
   the rounds, they sample the host over the whole measuring time. *)
let build_workloads () = ignore (Sys.opaque_identity (Pf_workloads.Suite.all ()))

(* set-up times with the stolen share taken out, and as measured *)
let setup_times = ref []
let raw_setup_times = ref []

let timed f =
  settle ();
  let t0 = now () in
  let st = f () in
  (st, now () -. t0)

(* A set-up is too short for the kernel's 10 ms ticks to count its
   steal, so each batch of set-ups takes out the share stolen over the
   whole batch, [a] being the count when it began. *)
let record a times =
  let kept = 1. -. Steal.share a (Steal.read ()) in
  raw_setup_times := times @ !raw_setup_times;
  setup_times := List.map (fun t -> t *. kept) times @ !setup_times

let timed_setup f =
  let a = Steal.read () in
  let st, t = timed f in
  record a [ t ];
  st

(* [n] set-ups, each released by [discard] once timed *)
let repeat_setups n ~discard f =
  let a = Steal.read () in
  record a
    (List.init n (fun _ ->
         let st, t = timed f in
         discard st;
         t))

let setup_metric what =
  (median !setup_times, median !raw_setup_times, List.length !setup_times, what)

(* the record Sweep.execute ~jobs:1 produces for each of [specs] *)
let references specs =
  Check.table specs (Layers.sweep ~jobs:1 ~dir:(fresh_dir "refs") specs).sw_runs

let lines_of specs = List.mapi (fun i s -> Client.request_line ~id:i s) specs

(* The metrics every workload reports: each time metric is the median
   over rounds (over set-ups for [setup_s]) of the time with the stolen
   share taken out; the readable lines also give it as measured. The
   latency tail is printed but not reported: a request that waits out
   a stolen slice gains its whole length, which no share can take out,
   and on the development VM serve-hit's corrected p99 rose by 60 %
   from rounds without steal to rounds with over 30 % stolen and its
   p90 by 27 %, while its p50 moved by 7 %. *)
let end_to_end ~setup ~what ~rounds:results ~samples ~rss =
  let rss, rss_note = rss in
  let setup_s, raw_setup_s, nsetup, setup_note = setup in
  let med g = median (List.map g results) in
  let kept r = 1. -. r.stolen in
  let over =
    Printf.sprintf "median of %d %s, %.1f%% stolen" (List.length results) what
      (100. *. med (fun r -> r.stolen))
  in
  let raw what v = Printf.sprintf "%s; %.6g as measured" what v in
  let per_s count r = float_of_int (count r) /. r.wall in
  let latency p =
    ( med (fun r -> percentile r.lat_ms p *. kept r),
      raw
        (Printf.sprintf "%s, %d samples a round; %s" samples
           (List.length (List.hd results).lat_ms) over)
        (med (fun r -> percentile r.lat_ms p)) )
  in
  let p50, p50_note = latency 50. in
  let tail p = fst (latency p) in
  let p50_note =
    Printf.sprintf "%s; tail, not reported: p90 %.4g, p99 %.4g" p50_note (tail 90.) (tail 99.)
  in
  [ ("setup_s", setup_s, "s", raw (Printf.sprintf "median of %d %s" nsetup setup_note) raw_setup_s);
    ("wall_s", med (fun r -> r.wall *. kept r), "s", raw over (med (fun r -> r.wall)));
    ( "sim_minstr_per_s", med (fun r -> per_s (fun r -> r.instrs) r /. kept r) /. 1e6, "Minstr/s",
      raw ("freshly simulated instructions per second, " ^ over)
        (med (per_s (fun r -> r.instrs)) /. 1e6) );
    ( "runs_per_s", med (fun r -> per_s (fun r -> r.ops) r /. kept r), "1/s",
      raw ("completed runs per second, " ^ over) (med (per_s (fun r -> r.ops))) );
    ("p50_ms", p50, "ms", p50_note);
    ("peak_rss_mb", rss, "MB", rss_note) ]

(* a closed loop's round *)
let loop_round ~instrs ~wall:(t0, t1) samples =
  { ops = Array.length samples; instrs; wall = t1 -. t0;
    lat_ms = Array.to_list (Array.map Client.rtt_ms samples); stolen = 0. }

(* ---- figure-grid ---- *)

(* the workloads of the grid a run sweeps: all, or two when tiny *)
let grid_workload w = (not !tiny) || w = "bzip2" || w = "mcf"

let grid_specs () =
  List.filter
    (fun (s : Sweep.spec) -> grid_workload s.workload)
    (Gen.figure_grid_seeded ~seed:!seed)

let check_grid expect runs =
  let attempted, failed = Check.grid_check expect ~in_use:grid_workload runs in
  tally.attempted <- tally.attempted + attempted;
  tally.failed <- tally.failed + failed

let grid_untraced () =
  let expect = Check.load_expectation Check.expect_file in
  let setup () =
    build_workloads ();
    ignore (Sys.opaque_identity (grid_specs ()));
    let dir = fresh_dir "cache" in
    ignore (Run_cache.create ~dir ());
    dir
  in
  repeat_setups (if !tiny then 1 else 101) ~discard:rm_rf setup;
  let specs = grid_specs () in
  let results =
    rounds ~min_rounds:3
      ~between:(fun _ -> repeat_setups 100 ~discard:rm_rf setup)
      (fun _ ->
        let dir = fresh_dir "cache" in
        let cache = Run_cache.create ~dir () in
        settle ();
        let t0 = now () in
        let runs, prepared = Sweep.execute ~cache ~jobs specs in
        let wall = now () -. t0 in
        rm_rf dir;
        check_grid expect runs;
        (* a window's latency: its preparation plus the simulation of
           every run sharing it *)
        let window_ms =
          List.map
            (fun (pw : Sweep.prepared_window) ->
              let sim =
                List.fold_left
                  (fun a (r : Sweep.run) ->
                    if r.workload = pw.pw_workload && r.window = pw.pw_window then a +. r.wall_s
                    else a)
                  0. runs
              in
              1000. *. (pw.pw_prepare_s +. sim))
            prepared
        in
        let instrs = List.fold_left (fun a (r : Sweep.run) -> a + r.instructions) 0 runs in
        { ops = List.length runs; instrs; wall; lat_ms = window_ms; stolen = 0. })
  in
  end_to_end ~setup:(setup_metric "set-ups") ~what:"sweeps" ~rounds:results
    ~samples:"per window: prepare + its runs' simulate"
    ~rss:(!first_round_rss, "VmHWM of this process after set-up and one sweep")

(* ---- serve-hit ---- *)

let hit_requests () = if !tiny then 60 else 960

(* instructions simulated by the fresh replies of a loop *)
let check_loop ?want_hit refs specs samples =
  List.fold_left2
    (fun a spec s ->
      match check_reply ?want_hit refs spec s with
      | Some r when not (r.Client.cached || r.coalesced) -> a + r.record.instructions
      | _ -> a)
    0 specs (Array.to_list samples)

let hit_untraced () =
  let refs = references (Gen.hit_specs ()) in
  let populate = ref [] in
  (* boot over an empty cache and simulate every unique spec once, from
     two clients *)
  let setup () =
    build_workloads ();
    let specs = Gen.hit_specs () in
    let d = boot () in
    let pop =
      with_stolen (fun () ->
          let samples, wall = Client.closed_loop ~socket ~clients:2 (lines_of specs) in
          loop_round ~instrs:(check_loop refs specs samples) ~wall samples)
    in
    populate := pop :: !populate;
    d
  in
  let discard d' = ignore (shutdown d') in
  repeat_setups (if !tiny then 0 else 2) ~discard setup;
  (* the measured daemon; the later set-ups boot, populate and stop a
     second daemon beside it, one before every round *)
  let d = timed_setup setup in
  let results =
    rounds ~min_rounds:3
      ~between:(fun _ ->
        repeat_setups 1 ~discard setup;
        Sys.chdir d.dir)
      (fun round ->
        let stream = Gen.hit_stream ~round ~seed:!seed ~n:(hit_requests ()) () in
        let lines = lines_of stream in
        settle ();
        let samples, wall = Client.closed_loop ~socket ~clients:2 lines in
        ignore (check_loop ~want_hit:true refs stream samples);
        loop_round ~instrs:0 ~wall samples)
  in
  let rss = shutdown d in
  let metrics =
    end_to_end ~setup:(setup_metric "boot+populate") ~what:"rounds"
      ~rounds:results ~samples:"round trip"
      ~rss:(rss, "VmHWM of the daemon after all rounds")
  in
  (* nothing simulates once the daemon is populated: the simulation
     rate is the set-ups' pre-populations' *)
  List.map
    (fun ((name, _, unit_, _) as m) ->
      if name = "sim_minstr_per_s" then
        ( name,
          median (List.map (fun r -> float_of_int r.instrs /. (r.wall *. (1. -. r.stolen))) !populate)
          /. 1e6,
          unit_,
          Printf.sprintf "median of %d pre-populations, the only phase that simulates, stolen share taken out"
            (List.length !populate) )
      else m)
    metrics

(* ---- serve-miss ---- *)

let miss_requests () = if !tiny then 24 else 120

let miss_untraced () =
  let setup () =
    build_workloads ();
    boot ()
  in
  let boots n = repeat_setups n ~discard:(fun d -> ignore (shutdown d)) setup in
  boots (if !tiny then 1 else 21);
  (* every full-size round requests the same 96 specs and 24 repeats,
     in its own order (a tiny run has a single round) *)
  let stream round = Gen.miss_stream ~round ~seed:!seed ~n:(miss_requests ()) () in
  let refs = references (Gen.unique (stream 0)) in
  let rss = ref [] in
  let results =
    rounds ~min_rounds:3 ~between:(fun _ -> boots 4) (fun round ->
        let stream = stream round in
        let lines = lines_of stream in
        let d = boot () in
        settle ();
        let samples, wall = Client.closed_loop ~socket ~clients:2 lines in
        rss := shutdown d :: !rss;
        loop_round ~instrs:(check_loop refs stream samples) ~wall samples)
  in
  end_to_end ~setup:(setup_metric "boots") ~what:"rounds" ~rounds:results
    ~samples:"round trip"
    ~rss:(median !rss, "median VmHWM of the round's daemon")

(* ---- the traced run ---- *)

(* the workload's specs: those its set-up simulates, and the operation
   stream it measures *)
let traced_inputs () =
  match !workload with
  | "figure-grid" -> ([], grid_specs ())
  | "serve-hit" -> (Gen.hit_specs (), Gen.hit_stream ~seed:!seed ~n:(hit_requests ()) ())
  | "serve-miss" -> ([], Gen.miss_stream ~seed:!seed ~n:(miss_requests ()) ())
  | w -> invalid_arg ("unknown workload " ^ w)

let traced () =
  let setup, stream = traced_inputs () in
  let all = Gen.unique (setup @ stream) in
  (* the sweep layer at one job, which also gives the correctness
     references *)
  let one = Layers.sweep ~jobs:1 ~dir:(fresh_dir "sweep1") all in
  if !workload = "figure-grid" then begin
    check_grid (Check.load_expectation Check.expect_file) one.sw_runs
  end;
  let refs = Check.table all one.sw_runs in
  let verify pairs =
    List.iter (fun (s, r) -> check (Check.matches refs s r)) pairs
  in
  let self_s = one.sw_wall -. one.sw_busy in
  (* the sweep layer at [jobs]: idle share and batching *)
  let two = Layers.sweep ~jobs ~dir:(fresh_dir "sweep2") all in
  verify (List.combine all two.sw_runs);
  let idle_share = 1. -. (two.sw_busy /. (float_of_int jobs *. two.sw_wall)) in
  let batched, batches =
    match two.sw_stats with
    | Some s -> (s.batched_runs, s.batch_count)
    | None -> (0, 0)
  in
  (* the serial replay, untraced then traced, each from a settled heap;
     a first, discarded pass takes the cost a first pass pays alone *)
  let pass traced =
    settle ();
    let r = Layers.replay ~traced ~dir:(fresh_dir "replay") ~setup ~stream in
    verify r.records;
    r
  in
  ignore (pass false);
  let untraced_wall = (pass false).wall in
  let rp = pass true in
  let traced_wall = rp.wall in
  let st = Layers.stages rp.windows in
  let engine = Layers.engine_summary (Layers.fill_engine_classes rp.engine rp.windows) in
  let all_spans name = Spans.durations rp.setup_spans name @ Spans.durations rp.stream_spans name in
  let stream_mean_us name = 1e6 *. Layers.mean (Spans.durations rp.stream_spans name) in
  let selfs = Spans.self_times rp.setup_spans @ Spans.self_times rp.stream_spans in
  let self name =
    List.fold_left (fun a (n, v) -> if n = name then a +. v else a) 0. selfs
  in
  (* the scheduler in process *)
  let sp = Layers.scheduler ~dir:(fresh_dir "sched") ~setup ~stream in
  verify sp.checked;
  for _ = 1 to sp.errors do check false done;
  (* the daemon over its socket: the workload's own closed loop *)
  let d = boot () in
  if setup <> [] then begin
    let pop, _ = Client.closed_loop ~socket ~clients:2 (lines_of setup) in
    List.iter2 (fun spec s -> ignore (check_reply refs spec s)) setup (Array.to_list pop)
  end;
  let samples, _ = Client.closed_loop ~socket ~clients:2 (lines_of stream) in
  let stats = Client.stats socket in
  ignore (shutdown d);
  let samples = Array.to_list samples in
  let transport =
    List.filter_map
      (fun ((spec : Sweep.spec), (s : Client.sample)) ->
        match check_reply refs spec s with
        | Some r -> Some (1000. *. (Client.rtt_ms s -. r.server_ms))
        | None -> None)
      (List.combine stream samples)
  in
  let decode_us, encode_us = Layers.protocol samples in
  let counter name =
    match Json.member_opt "counters" stats with
    | Some c -> (
        match Json.member_opt name c with Some (Json.Int i) -> float_of_int i | _ -> 0.)
    | None -> 0.
  in
  let finds = Spans.durations rp.stream_spans "workloads.find" in
  (* Suite.find cost by the workload's position in the suite list *)
  let workload_of = Array.of_list (List.map (fun (s : Sweep.spec) -> s.workload) stream) in
  print_string "  Suite.find mean ms by suite position:";
  List.iteri
    (fun pos name ->
      let ds =
        List.filter_map
          (fun (sp : Spans.span) ->
            if sp.name = "workloads.find" && workload_of.(sp.req) = name then
              Some (Spans.duration sp)
            else None)
          (Spans.spans rp.stream_spans)
      in
      if ds <> [] then Printf.printf " %d:%s=%.3f" pos name (1000. *. Layers.mean ds))
    Pf_workloads.Suite.names;
  print_newline ();
  let cls name k =
    match List.assoc_opt name engine.by_class with
    | Some (c, i) -> if k = 0 then c else i
    | None -> 0.
  in
  [ ("workloads.find_ms", 1000. *. Layers.mean finds, "ms", "mean Suite.find");
    ("workloads.find_calls", float_of_int (List.length finds), "count", "");
    ("prepare.machine_ms", st.machine_ms, "ms", "Machine.create + setup");
    ("prepare.capture_ms", st.capture_ms, "ms", "Tracer.capture");
    ("prepare.capture_ns_per_instr", st.capture_ns_per_instr, "ns/instr", "fast-forward + window");
    ("prepare.depinfo_ms", st.depinfo_ms, "ms", "Depinfo.compute");
    ("prepare.flatten_ms", st.flatten_ms, "ms", "Flat_trace.of_trace");
    ("prepare.occurrence_ms", st.occurrence_ms, "ms", "Occurrence.build");
    ("prepare.classify_ms", st.classify_ms, "ms", "Classify.spawn_points");
    ("prepare.total_ms", 1000. *. Layers.mean (all_spans "prepare"), "ms", "Run.prepare");
    ("prepare.windows", float_of_int st.windows, "count", "") ]
  @ [ ("engine.ns_per_cycle", engine.ns_per_cycle, "ns/cycle", "Run.simulate");
      ("engine.ns_per_instr", engine.ns_per_instr, "ns/instr", "Run.simulate") ]
  @ List.concat_map
      (fun c ->
        [ ("engine.ns_per_cycle." ^ c, cls c 0, "ns/cycle", "");
          ("engine.ns_per_instr." ^ c, cls c 1, "ns/instr", "") ])
      Layers.engine_classes
  @ [ ("engine.alloc_words_per_instr", engine.alloc_words_per_instr, "words/instr", "Gc.quick_stat delta");
      ("engine.sim_cycles", float_of_int engine.sim_cycles, "count", "exact");
      ("sweep.self_s", self_s, "s", "Sweep.execute ~jobs:1 wall minus prepare and simulate");
      ("sweep.idle_share", idle_share, "ratio", Printf.sprintf "jobs=%d" jobs);
      ("sweep.batched_runs", float_of_int batched, "count", "on_stats");
      ("sweep.batch_count", float_of_int batches, "count", "on_stats");
      ("run_cache.digest_us", stream_mean_us "run_cache.digest", "us", "Run_cache.digest");
      ("run_cache.find_us", stream_mean_us "run_cache.find", "us", "Run_cache.find");
      ("run_cache.store_us", 1e6 *. Layers.mean (all_spans "run_cache.store"), "us", "Run_cache.store");
      ( "run_cache.hit_ratio",
        (if rp.lookups = 0 then 0. else float_of_int rp.hits /. float_of_int rp.lookups),
        "ratio", Printf.sprintf "of %d stream lookups" rp.lookups );
      ("protocol.decode_us", decode_us, "us", "request_of_line");
      ("protocol.encode_us", encode_us, "us", "response_to_json + to_string");
      ("scheduler.hit_us", Layers.mean sp.hit_us, "us",
       Printf.sprintf "Scheduler.run hit, n=%d" (List.length sp.hit_us));
      ("scheduler.wait_ms", Layers.mean sp.wait_ms, "ms",
       Printf.sprintf "miss latency - prepare - simulate, n=%d" (List.length sp.wait_ms));
      ("server.transport_us", Layers.mean transport, "us", "round trip - Scheduler.run");
      ("scheduler.coalesced", counter "coalesced_requests", "count", "stats op");
      ("scheduler.prep_builds", counter "prep_builds", "count", "stats op");
      ("scheduler.prep_reuses", counter "prep_reuses", "count", "stats op");
      ("scheduler.batched_runs", counter "batched_runs", "count", "stats op");
      ("self_s.workloads", self "workloads.find", "s", "replay self time");
      ("self_s.run_cache", self "run_cache.digest" +. self "run_cache.find" +. self "run_cache.store", "s", "replay self time");
      ("self_s.prepare", self "prepare", "s", "replay self time");
      ("self_s.engine", self "engine", "s", "replay self time");
      ("self_s.replay", self "op", "s", "replay glue between layer calls");
      ("trace.wall_s", traced_wall, "s", "traced replay");
      ("trace.untraced_wall_s", untraced_wall, "s", "the same replay without spans");
      ("trace.overhead_s", traced_wall -. untraced_wall, "s", "traced - untraced") ]

(* ---- main ---- *)

let record_expectation () =
  let runs, _ = Sweep.execute ~jobs (Gen.figure_grid ()) in
  Check.record_expectation Check.expect_file runs;
  Printf.printf "wrote %s (%d runs)\n" Check.expect_file (List.length runs)

(* The amount of work in a workload's inputs must not depend on the
   seed or the round: over many seeds and rounds, the grid is always its
   360 specs, a serve-hit round draws all 48 populated specs, and a
   serve-miss round requests every one of its 96 fresh specs once, plus
   24 repeats. *)
let check_inputs_of_seeds () =
  let distinct l = List.length (Gen.unique l) in
  let ok = ref true in
  for seed = 1 to 200 do
    let round = seed mod 5 in
    let miss = Gen.miss_stream ~round ~seed ~n:120 () in
    let fine =
      distinct (Gen.figure_grid_seeded ~seed) = 360
      && distinct (Gen.hit_stream ~round ~seed ~n:960 ()) = 48
      && List.length miss = 120
      && distinct miss = 96
    in
    if not fine then begin
      Printf.printf "seed %d: inputs differ in size\n" seed;
      ok := false
    end
  done;
  print_endline (if !ok then "inputs ok" else "inputs FAIL");
  exit (if !ok then 0 else 1)

let () =
  if !daemon_mode then begin
    daemon_main ();
    exit 0
  end;
  if not (Sys.file_exists "perfbench/bench.ml") then begin
    prerr_endline "perfbench: run from the root of the repository";
    exit 2
  end;
  if !check_inputs then check_inputs_of_seeds ();
  if !record_expect then begin
    record_expectation ();
    exit 0
  end;
  let run =
    match (!trace, !workload) with
    | 1, ("figure-grid" | "serve-hit" | "serve-miss") -> traced
    | 0, "figure-grid" -> grid_untraced
    | 0, "serve-hit" -> hit_untraced
    | 0, "serve-miss" -> miss_untraced
    | _ ->
        Printf.eprintf "perfbench: unknown workload %S or trace %d\n" !workload !trace;
        exit 2
  in
  mkdir_p base;
  let metrics =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir root;
        rm_rf base)
      run
  in
  Printf.printf "%s seed=%d trace=%d jobs=%d\n" !workload !seed !trace jobs;
  emit metrics;
  if tally.failed > 0 || tally.attempted = 0 then exit 1
