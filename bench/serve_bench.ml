(* serve_bench: load generator for the polyflow_serve daemon.

   Speaks the newline-delimited JSON protocol of docs/SERVING.md over
   the daemon's Unix socket — deliberately building its requests as raw
   JSON rather than through Pf_serve.Protocol, so it doubles as an
   independent client implementation. Two phases:

     cold — every unique (workload, policy, window) spec once, in
            sequence: first-touch latency (prepare + simulate + store);
     warm — N requests spread over C client threads cycling through the
            same specs: cache-hit latency and throughput.

   Reports p50/p99/mean/max per phase plus warm requests/s and writes a
   schema-versioned BENCH_serve.json artifact (history carried across
   runs, like the other bench harnesses).

   `--smoke` boots its own in-process server on a temp socket and runs
   a seconds-scale self-check wired into `dune runtest`: 100 mixed
   requests over 4 clients, cache-hit byte-identity against a direct
   Sweep.execute over the same cache, coalescing of concurrent
   identical requests, the malformed-request error paths, the stats and
   ping ops, the HTTP shim, and a clean shutdown — then boots a second
   daemon with a fresh run cache and checks that its re-simulated
   replies match the first boot's byte for byte. Latency
   numbers go to the artifact, not stdout, so the output is
   byte-deterministic. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep

(* ---- command line ---- *)

let socket = ref ""
let requests = ref 200
let clients = ref 4
let window = ref 4_000
let jobs = ref 2
let json_out = ref "BENCH_serve.json"
let smoke = ref false

let () =
  Arg.parse
    [ ("--socket", Arg.Set_string socket,
       "PATH  connect to a running daemon (default: boot one in-process)");
      ("--requests", Arg.Set_int requests, "N  warm-phase requests (default 200)");
      ("--clients", Arg.Set_int clients, "N  concurrent client threads (default 4)");
      ("--window", Arg.Set_int window, "N  window size for every spec (default 4000)");
      ("--jobs", Arg.Set_int jobs, "N  worker domains for the in-process daemon (default 2)");
      ("--json", Arg.Set_string json_out, "FILE  output artifact (default: BENCH_serve.json)");
      ("--smoke", Arg.Set smoke, "  fast self-checking run (used by dune runtest)") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/serve_bench.exe [--socket PATH] [--requests N] [--clients N] [--smoke]"

(* the benchmark mix: three workloads x three policy classes *)
let mix =
  [ ("gzip", "superscalar"); ("gzip", "postdoms"); ("gzip", "rec_pred");
    ("mcf", "superscalar"); ("mcf", "postdoms"); ("mcf", "rec_pred");
    ("twolf", "superscalar"); ("twolf", "postdoms"); ("twolf", "rec_pred") ]

(* ---- client ---- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  Json.of_string (input_line c.ic)

let rpc c json = rpc_line c (Json.to_string json)

let run_req ?id ?(extra = []) ~window (workload, policy) =
  Json.Obj
    ([ ("op", Json.String "run") ]
    @ (match id with None -> [] | Some i -> [ ("id", Json.Int i) ])
    @ [ ("workload", Json.String workload);
        ("policy", Json.String policy);
        ("window", Json.Int window) ]
    @ extra)

let status r = Json.to_str (Json.member "status" r)
let is_ok r = status r = "ok"
let is_cached r = Json.to_bool (Json.member "cached" r)
let err_code r = Json.to_str (Json.member "code" r)
let run_bytes r = Json.to_string (Json.member "run" r)

(* ---- latency accounting ---- *)

let timed_rpc c json =
  let t0 = Unix.gettimeofday () in
  let r = rpc c json in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let lat_summary label lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let n = Array.length a in
  let mean = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 n) in
  ( label,
    Json.Obj
      [ ("count", Json.Int n);
        ("p50_ms", Json.Float (percentile a 50.));
        ("p99_ms", Json.Float (percentile a 99.));
        ("mean_ms", Json.Float mean);
        ("max_ms", Json.Float (if n = 0 then 0. else a.(n - 1))) ] )

(* ---- phases ---- *)

(* cold: every unique spec once, sequentially *)
let cold_phase c =
  List.map
    (fun spec ->
      let r, ms = timed_rpc c (run_req ~window:!window spec) in
      (spec, r, ms))
    mix

(* warm: [requests] spread over [clients] threads cycling through the
   mix; each thread has its own connection. Returns per-request
   (reply, latency) in issue order per client. *)
let warm_phase path =
  let nspecs = List.length mix in
  let specs = Array.of_list mix in
  let per_client ci =
    (!requests / !clients) + if ci < !requests mod !clients then 1 else 0
  in
  let results = Array.make !clients [] in
  let worker ci =
    let c = connect path in
    let out = ref [] in
    for j = 0 to per_client ci - 1 do
      let spec = specs.((ci + j) mod nspecs) in
      let r, ms = timed_rpc c (run_req ~id:((ci * 1000) + j) ~window:!window spec) in
      out := (spec, r, ms) :: !out
    done;
    close c;
    results.(ci) <- List.rev !out
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init !clients (fun ci -> Thread.create worker ci) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (Array.to_list results |> List.concat, wall)

(* ---- artifact ---- *)

let document ~tool ~wall_s ~cold ~warm ~warm_wall ~server_stats =
  let lats l = List.map (fun (_, _, ms) -> ms) l in
  let manifest = Pf_report.Manifest.create ~tool ~jobs:!jobs ~wall_s in
  Json.Obj
    [ ("schema_version", Json.Int Pf_report.Manifest.schema_version);
      ("bench", Json.String "serve");
      ("manifest", Pf_report.Manifest.to_json manifest);
      ( "config",
        Json.Obj
          [ ("requests", Json.Int !requests);
            ("clients", Json.Int !clients);
            ("window", Json.Int !window);
            ("unique_specs", Json.Int (List.length mix)) ] );
      lat_summary "cold" (lats cold);
      lat_summary "warm" (lats warm);
      ( "throughput",
        Json.Obj
          [ ("warm_wall_s", Json.Float warm_wall);
            ( "requests_per_s",
              Json.Float (float_of_int (List.length warm) /. warm_wall) ) ] );
      ("server_stats", server_stats) ]

(* history: same carry-over scheme as the other bench artifacts *)
let with_history path doc =
  let prior =
    if not (Sys.file_exists path) then []
    else
      try
        let ic = open_in_bin path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Json.member_opt "history" (Json.of_string text) with
        | Some (Json.List l) -> l
        | _ -> []
      with _ -> []
  in
  let sub a b = Json.member b (Json.member a doc) in
  let entry =
    Json.Obj
      [ ("created_unix", sub "manifest" "created_unix");
        ("git", sub "manifest" "git");
        ("tool", sub "manifest" "tool");
        ("timing_version", Json.String Pf_uarch.Engine.timing_version);
        ("warm_p50_ms", sub "warm" "p50_ms");
        ("requests_per_s", sub "throughput" "requests_per_s") ]
  in
  match doc with
  | Json.Obj fields ->
      Json.Obj (fields @ [ ("history", Json.List (prior @ [ entry ])) ])
  | j -> j

let save path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n')

(* ---- in-process daemon (when --socket is not given) ---- *)

(* [dir] and [cache_sub] let the smoke boot a second daemon in the same
   base directory with a fresh run cache. *)
let boot_in_process ?dir ?(cache_sub = "cache") () =
  let dir =
    match dir with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "pf_serve_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg =
    { (Pf_serve.Server.default_config ~socket_path:(Filename.concat dir "s.sock"))
      with
      jobs = !jobs;
      cache_dir = Some (Filename.concat dir cache_sub);
      http_port = Some 0;
      prewarm_windows = [ !window ] }
  in
  (Pf_serve.Server.start cfg, cfg, dir)

let rm_rf dir =
  let rec go p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Unix.unlink p
    | exception Unix.Unix_error _ -> ()
  in
  go dir

(* ---- HTTP shim client (smoke only) ---- *)

let http_rpc port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      output_string oc request;
      flush oc;
      let status_line = String.trim (input_line ic) in
      let code =
        match String.split_on_char ' ' status_line with
        | _ :: c :: _ -> ( try int_of_string c with _ -> 0)
        | _ -> 0
      in
      let rec skip_headers () =
        if String.trim (input_line ic) <> "" then skip_headers ()
      in
      skip_headers ();
      let body = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel body ic 1
         done
       with End_of_file -> ());
      (code, Json.of_string (Buffer.contents body)))

let http_get port path =
  http_rpc port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path)

let http_post port path body =
  http_rpc port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

(* ---- smoke ---- *)

let run_smoke () =
  requests := 100;
  clients := 4;
  (* one worker domain: the batched-path section below relies on jobs
     queueing behind a single busy worker so they drain as one batch *)
  jobs := 1;
  let failures = ref [] in
  let check name ok =
    Printf.printf "serve-bench %s: %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  let t_start = Unix.gettimeofday () in
  let server, cfg, dir = boot_in_process () in
  let sock = cfg.Pf_serve.Server.socket_path in
  let cache_dir = Option.get cfg.Pf_serve.Server.cache_dir in
  let c = connect sock in

  (* ping echoes the request id *)
  let pong = rpc c (Json.Obj [ ("op", Json.String "ping"); ("id", Json.Int 7) ]) in
  check "ping echoes id"
    (is_ok pong
    && Json.member_opt "id" pong = Some (Json.Int 7)
    && Json.to_str (Json.member "op" pong) = "ping");

  (* concurrent identical cold requests coalesce into one simulation:
     of the 4 replies exactly one is fresh, the rest joined the
     in-flight job or hit the cache it filled *)
  let co_spec = ("gzip", "postdoms") in
  let co_window = !window + 100 in
  let co_replies = Array.make 4 Json.Null in
  let co_threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let c = connect sock in
            co_replies.(i) <- rpc c (run_req ~window:co_window co_spec);
            close c)
          ())
  in
  List.iter Thread.join co_threads;
  let fresh =
    Array.to_list co_replies
    |> List.filter (fun r ->
           is_ok r && (not (is_cached r))
           && not (Json.to_bool (Json.member "coalesced" r)))
  in
  check "concurrent identical requests simulate once"
    (Array.for_all is_ok co_replies && List.length fresh = 1);
  check "coalesced replies byte-identical"
    (Array.for_all
       (fun r -> run_bytes r = run_bytes co_replies.(0))
       co_replies);

  (* cold pass: every unique spec is a miss the first time *)
  let cold = cold_phase c in
  check "cold pass all ok" (List.for_all (fun (_, r, _) -> is_ok r) cold);
  check "cold pass all fresh"
    (List.for_all (fun (_, r, _) -> not (is_cached r)) cold);

  (* warm pass: 100 mixed requests over 4 clients, all cache hits *)
  let warm, warm_wall = warm_phase sock in
  check "warm pass all ok" (List.for_all (fun (_, r, _) -> is_ok r) warm);
  check "warm pass all cached"
    (List.for_all (fun (_, r, _) -> is_cached r) warm);
  check "warm replies echo ids"
    (List.for_all (fun (_, r, _) -> Json.member_opt "id" r <> None) warm);

  (* byte-identity: every warm reply carries exactly the bytes the cold
     pass stored for its spec *)
  let cold_bytes spec =
    let _, r, _ = List.find (fun (s, _, _) -> s = spec) cold in
    run_bytes r
  in
  check "warm replies byte-identical to first run"
    (List.for_all (fun (spec, r, _) -> run_bytes r = cold_bytes spec) warm);

  (* ... and to a direct Sweep.execute over the same cache directory:
     the daemon's replies are indistinguishable from the sweep's runs *)
  let policy name =
    match Pf_core.Policy.of_string name with
    | Ok p -> p
    | Error m -> failwith m
  in
  let specs =
    List.map (fun (w, p) -> Sweep.spec ~window:!window w (policy p)) mix
  in
  let direct_cache = Pf_report.Run_cache.create ~dir:cache_dir () in
  let direct_runs, _ = Sweep.execute ~cache:direct_cache ~jobs:1 specs in
  check "cached replies match direct sweep"
    (List.length direct_runs = List.length mix
    && List.for_all2
         (fun spec run ->
           Json.to_string (Sweep.run_to_json run) = cold_bytes spec)
         mix direct_runs);

  (* error paths *)
  let garbage = rpc_line c "this is not json" in
  check "malformed line answered with parse_error"
    (status garbage = "error" && err_code garbage = "parse_error");
  let unknown_wl =
    rpc c (run_req ~window:!window ("no-such-workload", "postdoms"))
  in
  check "unknown workload rejected"
    (status unknown_wl = "error" && err_code unknown_wl = "unknown_workload");
  let unknown_pol = rpc c (run_req ~window:!window ("gzip", "no-such-policy")) in
  check "unknown policy rejected"
    (status unknown_pol = "error" && err_code unknown_pol = "unknown_policy");
  let bad_window = rpc c (run_req ~window:(-1) ("gzip", "postdoms")) in
  check "non-positive window rejected"
    (status bad_window = "error" && err_code bad_window = "bad_request");
  let bad_op = rpc c (Json.Obj [ ("op", Json.String "explode") ]) in
  check "unknown op rejected"
    (status bad_op = "error" && err_code bad_op = "bad_request");

  (* stats: 10 distinct digests were simulated exactly once each (9 mix
     specs + the coalescing spec), and the cache holds exactly them *)
  let stats_reply = rpc c (Json.Obj [ ("op", Json.String "stats") ]) in
  let stats = Json.member "stats" stats_reply in
  let cache_stats = Json.member "cache" stats in
  let counter name =
    Json.to_int (Json.member name (Json.member "counters" stats))
  in
  check "stats coherent"
    (is_ok stats_reply
    && Json.to_int (Json.member "entries" cache_stats) = 10
    && counter "simulations" = 10
    && counter "run_cache_stores" = 10
    && counter "run_cache_evictions" = 0
    && counter "run_cache_hits" >= List.length warm
    && counter "run_requests"
       >= List.length warm + List.length cold + Array.length co_replies
    && counter "malformed_requests" >= 2);

  (* the prepare-time gauge is exposed in stats *)
  check "stats expose prepare gauge"
    (Json.member_opt "prepare_ms" stats <> None
    && Json.to_float (Json.member "prepare_ms" stats) >= 0.);

  (* ---- the batched lockstep path ----
     Hold the single worker on a long blocker request; three same-window
     cache-miss requests then pile up in the queue and the worker drains
     them as one lockstep batch (Scheduler max_batch). Their replies
     must be byte-identical to solo simulations of the same specs. *)
  let blocker_reply = ref Json.Null in
  let blocker =
    Thread.create
      (fun () ->
        let bc = connect sock in
        blocker_reply := rpc bc (run_req ~window:200_000 ("gzip", "superscalar"));
        close bc)
      ()
  in
  (* wait until the worker has popped the blocker: it is in flight
     (pending) but no longer queued *)
  let rec wait_blocker tries =
    let s = Json.member "stats" (rpc c (Json.Obj [ ("op", Json.String "stats") ])) in
    if
      Json.to_int (Json.member "inflight" s) >= 1
      && Json.to_int (Json.member "queued" s) = 0
    then true
    else if tries = 0 then false
    else begin
      Unix.sleepf 0.002;
      wait_blocker (tries - 1)
    end
  in
  check "blocker request picked up" (wait_blocker 2_000);
  let batch_window = !window + 200 in
  let batch_mix =
    [ ("gzip", "superscalar"); ("gzip", "postdoms"); ("gzip", "rec_pred") ]
  in
  let batch_replies = Array.make (List.length batch_mix) Json.Null in
  let batch_threads =
    List.mapi
      (fun i spec ->
        Thread.create
          (fun () ->
            let bc = connect sock in
            batch_replies.(i) <- rpc bc (run_req ~window:batch_window spec);
            close bc)
          ())
      batch_mix
  in
  List.iter Thread.join batch_threads;
  Thread.join blocker;
  check "batched trio all fresh"
    (is_ok !blocker_reply
    && Array.for_all
         (fun r -> is_ok r && not (is_cached r))
         batch_replies);
  let stats_b =
    Json.member "stats" (rpc c (Json.Obj [ ("op", Json.String "stats") ]))
  in
  check "batched runs counted"
    (Json.to_int
       (Json.member "batched_runs" (Json.member "counters" stats_b))
    >= 2);
  (* byte-identity with the batch path active: same specs simulated
     solo (fresh, uncached, batching disabled) must produce the same
     metrics and counters — only wall_s legitimately differs *)
  let direct_solo, _ =
    Sweep.execute ~jobs:1 ~batch:1
      (List.map
         (fun (w, p) -> Sweep.spec ~window:batch_window w (policy p))
         batch_mix)
  in
  let member name j = Json.to_string (Json.member name j) in
  check "batched replies byte-identical to solo simulation"
    (List.for_all2
       (fun r run ->
         let reply_run = Json.member "run" r in
         let direct = Sweep.run_to_json run in
         member "metrics" reply_run = member "metrics" direct
         && member "counters" reply_run = member "counters" direct)
       (Array.to_list batch_replies)
       direct_solo);

  (* the HTTP shim answers the same protocol *)
  let http_port = Option.get (Pf_serve.Server.http_port server) in
  let hz_code, hz = http_get http_port "/healthz" in
  check "http healthz" (hz_code = 200 && is_ok hz);
  let run_code, http_run =
    http_post http_port "/run"
      (Json.to_string (run_req ~window:!window (List.hd mix)))
  in
  check "http run served from cache"
    (run_code = 200 && is_ok http_run && is_cached http_run
    && run_bytes http_run = cold_bytes (List.hd mix));
  let bad_code, http_bad = http_post http_port "/run" "{]" in
  check "http malformed is 400"
    (bad_code = 400 && err_code http_bad = "parse_error");
  let stats_code, http_stats = http_get http_port "/stats" in
  check "http stats" (stats_code = 200 && is_ok http_stats);
  let nf_code, _ = http_get http_port "/nope" in
  check "http unknown endpoint is 404" (nf_code = 404);

  (* artifact round-trip *)
  let doc =
    document ~tool:"serve_bench --smoke"
      ~wall_s:(Unix.gettimeofday () -. t_start)
      ~cold:(List.map (fun (_, r, ms) -> ((), r, ms)) cold)
      ~warm:(List.map (fun (_, r, ms) -> ((), r, ms)) warm)
      ~warm_wall ~server_stats:stats
  in
  let reparsed = Json.of_string (Json.to_string_pretty doc) in
  check "artifact round-trip"
    (Json.to_int (Json.member "schema_version" reparsed)
     = Pf_report.Manifest.schema_version
    && Json.to_int (Json.member "count" (Json.member "warm" reparsed)) = 100);
  save !json_out (with_history !json_out doc);

  (* graceful shutdown over the socket *)
  let bye = rpc c (Json.Obj [ ("op", Json.String "shutdown") ]) in
  check "shutdown acknowledged"
    (is_ok bye && Json.to_str (Json.member "op" bye) = "shutdown");
  close c;
  Pf_serve.Server.run server;
  check "socket unlinked after shutdown" (not (Sys.file_exists sock));

  (* ---- second boot with a fresh run cache ----
     A new daemon with an empty run cache re-prepares and re-simulates
     every request. Results must be deterministic across processes: the
     same metrics and counters as the first boot's cold pass. *)
  let server2, cfg2, _ = boot_in_process ~dir ~cache_sub:"cache2" () in
  let c2 = connect cfg2.Pf_serve.Server.socket_path in
  let cold2 = cold_phase c2 in
  check "second boot cold pass fresh"
    (List.for_all (fun (_, r, _) -> is_ok r && not (is_cached r)) cold2);
  let member name j = Json.to_string (Json.member name j) in
  check "second boot replies byte-identical to first boot"
    (List.for_all
       (fun (spec, r, _) ->
         let reply_run = Json.member "run" r in
         let first = Json.of_string (cold_bytes spec) in
         member "metrics" reply_run = member "metrics" first
         && member "counters" reply_run = member "counters" first)
       cold2);
  let bye2 = rpc c2 (Json.Obj [ ("op", Json.String "shutdown") ]) in
  check "second boot shutdown acknowledged" (is_ok bye2);
  close c2;
  Pf_serve.Server.run server2;

  rm_rf dir;
  Printf.printf "serve-bench smoke: %s\n"
    (if !failures = [] then "PASS" else "FAIL");
  exit (if !failures = [] then 0 else 1)

(* ---- full run ---- *)

let run_full () =
  let t_start = Unix.gettimeofday () in
  let booted = if !socket = "" then Some (boot_in_process ()) else None in
  let sock =
    match booted with
    | Some (_, cfg, _) -> cfg.Pf_serve.Server.socket_path
    | None -> !socket
  in
  Printf.printf
    "serve bench: %d unique specs (window %d), %d requests over %d clients%s\n%!"
    (List.length mix) !window !requests !clients
    (match booted with
    | Some _ -> Printf.sprintf " (in-process daemon, %d jobs)" !jobs
    | None -> Printf.sprintf " against %s" sock);
  let c = connect sock in
  let cold = cold_phase c in
  let warm, warm_wall = warm_phase sock in
  let stats_reply = rpc c (Json.Obj [ ("op", Json.String "stats") ]) in
  let stats = Json.member "stats" stats_reply in
  close c;
  (match booted with
  | Some (server, _, dir) ->
      Pf_serve.Server.stop server;
      rm_rf dir
  | None -> ());
  let pr label l =
    let a = Array.of_list (List.map (fun (_, _, ms) -> ms) l) in
    Array.sort compare a;
    Printf.printf "  %-5s %4d reqs  p50 %7.2f ms  p99 %7.2f ms  max %7.2f ms\n"
      label (Array.length a) (percentile a 50.) (percentile a 99.)
      (if a = [||] then 0. else a.(Array.length a - 1))
  in
  pr "cold" cold;
  pr "warm" warm;
  Printf.printf "  warm throughput %.0f requests/s\n"
    (float_of_int (List.length warm) /. warm_wall);
  let doc =
    document
      ~tool:(String.concat " " (Array.to_list Sys.argv))
      ~wall_s:(Unix.gettimeofday () -. t_start)
      ~cold ~warm ~warm_wall ~server_stats:stats
  in
  save !json_out (with_history !json_out doc);
  Printf.printf "Wrote %s (schema %d)\n" !json_out
    Pf_report.Manifest.schema_version

let () = if !smoke then run_smoke () else run_full ()
