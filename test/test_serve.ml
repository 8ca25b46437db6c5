(* Tests for pf_serve and the sharded LRU run cache underneath it:
   protocol codec round trips and error paths, cache cold-start /
   sharding / migration / eviction-order behaviour, scheduler
   coalescing, no_cache, prep sharing and the deterministic timeout
   path, and a socket-level integration case against a live server. *)

open Pf_serve
module Json = Pf_json.Json
module Run_cache = Pf_report.Run_cache
module Counters = Pf_obs.Counters

let case name f = Alcotest.test_case name `Quick f

let temp_dir =
  let serial = ref 0 in
  fun () ->
    incr serial;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pf_serve_test_%d_%d" (Unix.getpid ()) !serial)
    in
    let rec rm_rf p =
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
      | _ -> Unix.unlink p
      | exception Unix.Unix_error _ -> ()
    in
    rm_rf d;
    Unix.mkdir d 0o700;
    d

(* ---- protocol ---- *)

let all_codes =
  [ Protocol.Parse_error; Protocol.Bad_request; Protocol.Unknown_workload;
    Protocol.Unknown_policy; Protocol.Timeout; Protocol.Shutting_down;
    Protocol.Internal ]

let test_error_code_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Protocol.error_code_name c) true
        (Protocol.error_code_of_name (Protocol.error_code_name c) = Some c))
    all_codes;
  Alcotest.(check bool) "unknown name" true
    (Protocol.error_code_of_name "nope" = None)

let req_roundtrips r =
  Protocol.request_of_json (Protocol.request_to_json r) = Ok r

let test_request_roundtrip () =
  let full =
    Protocol.Run
      { id = Json.Int 42;
        workload = "gzip";
        policy = "postdoms";
        label = Some "mine";
        window = Some 4_000;
        config = Some (Json.Obj [ ("task_slots", Json.Int 4) ]);
        timeout_ms = Some 250;
        no_cache = true }
  in
  let minimal =
    Protocol.Run
      { id = Json.Null;
        workload = "mcf";
        policy = "postdoms";
        label = None;
        window = None;
        config = None;
        timeout_ms = None;
        no_cache = false }
  in
  List.iter
    (fun r -> Alcotest.(check bool) "request round trip" true (req_roundtrips r))
    [ full; minimal;
      Protocol.Stats (Json.String "s1");
      Protocol.Ping Json.Null;
      Protocol.Shutdown (Json.Int 9) ]

let test_request_defaults () =
  (* op defaults to run, policy to postdoms *)
  match Protocol.request_of_line {|{"workload":"gzip"}|} with
  | Ok (Protocol.Run r) ->
      Alcotest.(check string) "default policy" "postdoms" r.Protocol.policy;
      Alcotest.(check bool) "no id" true (r.Protocol.id = Json.Null);
      Alcotest.(check bool) "no window" true (r.Protocol.window = None)
  | _ -> Alcotest.fail "bare workload line should decode as a run request"

let test_request_errors () =
  let code line =
    match Protocol.request_of_line line with
    | Error (c, _) -> Some c
    | Ok _ -> None
  in
  Alcotest.(check bool) "bad json" true
    (code "{not json" = Some Protocol.Parse_error);
  Alcotest.(check bool) "non-object" true
    (code "[1,2]" = Some Protocol.Bad_request);
  Alcotest.(check bool) "missing workload" true
    (code {|{"op":"run"}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "mistyped window" true
    (code {|{"workload":"gzip","window":"big"}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "mistyped no_cache" true
    (code {|{"workload":"gzip","no_cache":1}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "unknown op" true
    (code {|{"op":"explode"}|} = Some Protocol.Bad_request)

let resp_roundtrips r =
  Protocol.response_of_json (Protocol.response_to_json r) = Ok r

let test_response_roundtrip () =
  let run_reply =
    Protocol.Run_reply
      { rr_id = Json.Int 1;
        cached = true;
        coalesced = false;
        digest = "abc123";
        wall_ms = 0.25;
        run = Json.Obj [ ("workload", Json.String "gzip") ] }
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round trip" true (resp_roundtrips r))
    [ run_reply;
      Protocol.Stats_reply { sr_id = Json.Null; stats = Json.Obj [] };
      Protocol.Pong (Json.Int 3);
      Protocol.Shutdown_reply Json.Null;
      Protocol.Error_reply
        { er_id = Json.Int 8;
          code = Protocol.Timeout;
          message = "too slow" } ]

(* ---- run cache: cold start, sharding, migration, LRU ---- *)

let entry n = Json.Obj [ ("payload", Json.Int n) ]

(* the cache only recognizes 32-char lowercase-hex names as entries
   (scan, migration), so test digests must be shaped like real ones *)
let hex_digest prefix fill = prefix ^ String.make 30 fill
let d_aa = hex_digest "aa" '1'
let d_ab = hex_digest "ab" '2'
let d_bb = hex_digest "bb" '3'
let d_cc = hex_digest "cc" '4'

let test_cache_cold_start_creates_parents () =
  (* regression: create must mkdir -p missing parent directories *)
  let root = temp_dir () in
  let dir = Filename.concat root "a/b/c/cache" in
  let cache = Run_cache.create ~dir () in
  Run_cache.store cache ~digest:d_aa (entry 1);
  Alcotest.(check bool) "find after cold start" true
    (Run_cache.find cache ~digest:d_aa = Some (entry 1));
  Alcotest.(check bool) "dir exists" true
    (Sys.is_directory dir)

let test_cache_sharding () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  Run_cache.store cache ~digest:d_ab (entry 2);
  let p = Run_cache.path cache ~digest:d_ab in
  Alcotest.(check bool) "entry lives in its shard" true (Sys.file_exists p);
  Alcotest.(check string) "shard is the digest prefix" "ab"
    (Filename.basename (Filename.dirname p))

let test_cache_legacy_migration () =
  (* entries written by the old flat layout are adopted on create *)
  let dir = temp_dir () in
  let flat = Filename.concat dir (d_cc ^ ".json") in
  let oc = open_out flat in
  output_string oc
    (Json.to_string
       (Json.Obj [ ("digest", Json.String d_cc); ("run", entry 3) ]));
  close_out oc;
  let cache = Run_cache.create ~dir () in
  Alcotest.(check bool) "migrated entry found" true
    (Run_cache.find cache ~digest:d_cc = Some (entry 3));
  Alcotest.(check bool) "flat file moved into its shard" true
    (Sys.file_exists (Run_cache.path cache ~digest:d_cc)
    && not (Sys.file_exists flat))

let test_cache_lru_eviction_order () =
  let counters = Counters.create () in
  let cache = Run_cache.create ~cap:2 ~counters ~dir:(temp_dir ()) () in
  Run_cache.store cache ~digest:d_aa (entry 1);
  Run_cache.store cache ~digest:d_bb (entry 2);
  (* touch aa01 so bb02 becomes the least recently used *)
  Alcotest.(check bool) "hit before eviction" true
    (Run_cache.find cache ~digest:d_aa <> None);
  Run_cache.store cache ~digest:d_cc (entry 3);
  Alcotest.(check bool) "LRU entry evicted" true
    (Run_cache.find cache ~digest:d_bb = None);
  Alcotest.(check bool) "recently-hit entry survives" true
    (Run_cache.find cache ~digest:d_aa <> None);
  Alcotest.(check bool) "new entry present" true
    (Run_cache.find cache ~digest:d_cc <> None);
  let s = Run_cache.stats cache in
  Alcotest.(check int) "entries at cap" 2 s.Run_cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Run_cache.evictions;
  Alcotest.(check int) "stores counted" 3 s.Run_cache.stores;
  (* the same numbers flow into the registry *)
  let v name = List.assoc name (Counters.to_alist counters) in
  Alcotest.(check int) "registry evictions" 1 (v "run_cache_evictions");
  Alcotest.(check int) "registry stores" 3 (v "run_cache_stores")

let test_cache_recency_survives_reopen () =
  (* LRU order is seeded from mtimes, so a restart keeps it: hits
     refresh mtime via utimes *)
  let dir = temp_dir () in
  let c1 = Run_cache.create ~dir () in
  Run_cache.store c1 ~digest:d_aa (entry 1);
  Run_cache.store c1 ~digest:d_bb (entry 2);
  (* push aa01's mtime well into the past, as an old hit would be *)
  let past = Unix.gettimeofday () -. 3600. in
  Unix.utimes (Run_cache.path c1 ~digest:d_aa) past past;
  let c2 = Run_cache.create ~cap:1 ~dir () in
  Run_cache.store c2 ~digest:d_cc (entry 3);
  Alcotest.(check bool) "stale entry evicted first" true
    (Run_cache.find c2 ~digest:d_aa = None);
  Alcotest.(check bool) "new entry survives" true
    (Run_cache.find c2 ~digest:d_cc <> None)

(* ---- scheduler ---- *)

let run_request ?(id = Json.Null) ?label ?window ?timeout_ms ?(no_cache = false)
    workload policy =
  { Protocol.id;
    workload;
    policy;
    label;
    window;
    config = None;
    timeout_ms;
    no_cache }

let with_scheduler ?cache ?(jobs = 1) f =
  let counters = Counters.create () in
  let sched = Scheduler.create ?cache ~jobs ~counters () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () -> f sched counters)

let counter counters name = List.assoc name (Counters.to_alist counters)

let test_scheduler_resolution_errors () =
  with_scheduler (fun sched _ ->
      (match Scheduler.run sched (run_request "no-such" "postdoms") with
      | Protocol.Error_reply { code = Protocol.Unknown_workload; _ } -> ()
      | _ -> Alcotest.fail "unknown workload not rejected");
      (match Scheduler.run sched (run_request "gzip" "no-such") with
      | Protocol.Error_reply { code = Protocol.Unknown_policy; _ } -> ()
      | _ -> Alcotest.fail "unknown policy not rejected");
      (match Scheduler.run sched (run_request ~window:0 "gzip" "postdoms") with
      | Protocol.Error_reply { code = Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "window 0 not rejected"))

let test_scheduler_hit_miss_and_prep_sharing () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache (fun sched counters ->
      let req = run_request ~window:2_000 "gzip" "postdoms" in
      let first =
        match Scheduler.run sched req with
        | Protocol.Run_reply r ->
            Alcotest.(check bool) "first is fresh" false r.Protocol.cached;
            r.Protocol.run
        | _ -> Alcotest.fail "first run failed"
      in
      (match Scheduler.run sched req with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "second is cached" true r.Protocol.cached;
          Alcotest.(check string) "byte-identical replay"
            (Json.to_string first)
            (Json.to_string r.Protocol.run)
      | _ -> Alcotest.fail "second run failed");
      (* a different policy over the same window reuses the prepared
         trace instead of re-running architectural execution *)
      (match Scheduler.run sched (run_request ~window:2_000 "gzip" "superscalar") with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "other policy fresh" false r.Protocol.cached
      | _ -> Alcotest.fail "superscalar run failed");
      Alcotest.(check int) "one prep build" 1 (counter counters "prep_builds");
      Alcotest.(check bool) "prep reused" true
        (counter counters "prep_reuses" >= 1);
      Alcotest.(check int) "two simulations" 2
        (counter counters "simulations"))

let test_scheduler_no_cache () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache (fun sched counters ->
      let req = run_request ~window:2_000 ~no_cache:true "mcf" "postdoms" in
      let cached r =
        match r with
        | Protocol.Run_reply r -> r.Protocol.cached
        | _ -> Alcotest.fail "no_cache run failed"
      in
      Alcotest.(check bool) "first fresh" false (cached (Scheduler.run sched req));
      Alcotest.(check bool) "second still fresh" false
        (cached (Scheduler.run sched req));
      Alcotest.(check int) "simulated twice" 2 (counter counters "simulations");
      (* a normal request is then served from the cache the no_cache
         runs filled *)
      Alcotest.(check bool) "plain request hits" true
        (cached (Scheduler.run sched (run_request ~window:2_000 "mcf" "postdoms"))))

let test_scheduler_coalescing () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache ~jobs:2 (fun sched counters ->
      let req = run_request ~window:2_000 "twolf" "postdoms" in
      let replies = Array.make 4 None in
      let threads =
        List.init 4 (fun i ->
            Thread.create
              (fun () -> replies.(i) <- Some (Scheduler.run sched req))
              ())
      in
      List.iter Thread.join threads;
      (* each concurrent identical request is the one that simulated, a
         coalesced joiner of the in-flight job, or a cache hit of the
         result it stored — never a second simulation *)
      let fresh, joined =
        Array.fold_left
          (fun (fresh, joined) r ->
            match r with
            | Some (Protocol.Run_reply r) ->
                if r.Protocol.cached || r.Protocol.coalesced then
                  (fresh, joined + 1)
                else (fresh + 1, joined)
            | _ -> Alcotest.fail "concurrent run failed")
          (0, 0) replies
      in
      Alcotest.(check int) "exactly one fresh simulation" 1 fresh;
      Alcotest.(check int) "the rest joined or hit" 3 joined;
      Alcotest.(check int) "one simulation" 1 (counter counters "simulations");
      Alcotest.(check int) "all requests counted" 4
        (counter counters "run_requests");
      let bytes r =
        match r with
        | Some (Protocol.Run_reply r) -> Json.to_string r.Protocol.run
        | _ -> Alcotest.fail "concurrent run failed"
      in
      Array.iter
        (fun r ->
          Alcotest.(check string) "byte-identical payloads"
            (bytes replies.(0)) (bytes r))
        replies)

let test_scheduler_timeout () =
  (* one worker, occupied by a deliberately large window: the second
     request sits in the queue past its deadline — deterministically,
     because the worker cannot pick it up before finishing the first *)
  with_scheduler ~jobs:1 (fun sched counters ->
      let slow = run_request ~window:400_000 "gzip" "postdoms" in
      let slow_reply = ref None in
      let th =
        Thread.create (fun () -> slow_reply := Some (Scheduler.run sched slow)) ()
      in
      (* wait until the slow job is actually in flight *)
      let rec wait_inflight n =
        let inflight =
          match List.assoc "inflight" (Scheduler.stats_fields sched) with
          | Json.Int i -> i
          | _ -> 0
        in
        if inflight = 0 && n > 0 then begin
          Thread.yield ();
          Unix.sleepf 0.001;
          wait_inflight (n - 1)
        end
      in
      wait_inflight 5_000;
      (match
         Scheduler.run sched
           (run_request ~window:2_000 ~timeout_ms:5 "mcf" "postdoms")
       with
      | Protocol.Error_reply { code = Protocol.Timeout; _ } -> ()
      | _ -> Alcotest.fail "queued request did not time out");
      Alcotest.(check int) "timeout counted" 1
        (counter counters "request_timeouts");
      Thread.join th;
      match !slow_reply with
      | Some (Protocol.Run_reply _) -> ()
      | _ -> Alcotest.fail "slow request did not complete")

(* ---- server integration over a real socket ---- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rpc (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Json.of_string (input_line ic)

let test_server_socket_roundtrip () =
  let dir = temp_dir () in
  let cfg =
    { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
      Server.jobs = 1;
      cache_dir = Some (Filename.concat dir "cache") }
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = connect cfg.Server.socket_path in
      let str k j = Json.to_str (Json.member k j) in
      Alcotest.(check string) "ping" "ping"
        (str "op" (rpc c {|{"op":"ping"}|}));
      let fresh = rpc c {|{"workload":"gzip","window":2000,"id":1}|} in
      Alcotest.(check string) "run ok" "ok" (str "status" fresh);
      Alcotest.(check bool) "first fresh" false
        (Json.to_bool (Json.member "cached" fresh));
      let hit = rpc c {|{"workload":"gzip","window":2000,"id":2}|} in
      Alcotest.(check bool) "second cached" true
        (Json.to_bool (Json.member "cached" hit));
      Alcotest.(check string) "byte-identical run payload"
        (Json.to_string (Json.member "run" fresh))
        (Json.to_string (Json.member "run" hit));
      Alcotest.(check bool) "ids echoed" true
        (Json.member "id" fresh = Json.Int 1 && Json.member "id" hit = Json.Int 2);
      Alcotest.(check string) "malformed line -> parse_error" "parse_error"
        (str "code" (rpc c "]["));
      Alcotest.(check string) "stats op" "stats"
        (str "op" (rpc c {|{"op":"stats"}|}));
      let (fd, _, _) = c in
      Unix.close fd);
  Alcotest.(check bool) "socket unlinked" false
    (Sys.file_exists cfg.Server.socket_path)

let test_server_refuses_shutdown_when_disabled () =
  let dir = temp_dir () in
  let cfg =
    { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
      Server.jobs = 1;
      cache_dir = None;
      allow_shutdown = false }
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Server.dispatch server (Protocol.Shutdown Json.Null) with
      | Protocol.Error_reply { code = Protocol.Bad_request; _ } ->
          Alcotest.(check bool) "not stopping" false
            (Server.stop_requested server)
      | _ -> Alcotest.fail "disabled shutdown was honoured")

(* The member names of the stats table in docs/SERVING.md: the first
   cell of each row of the first table after the "`stats` replies
   carry" paragraph. *)
let documented_stats_members () =
  let ic = open_in "../docs/SERVING.md" in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
    |> String.split_on_char '\n'
  in
  let starts_with prefix l = String.starts_with ~prefix l in
  let rec skip_to_para = function
    | [] -> Alcotest.fail "docs/SERVING.md: stats paragraph not found"
    | l :: rest when starts_with "`stats` replies carry" l -> rest
    | _ :: rest -> skip_to_para rest
  in
  let rec skip_to_table = function
    | [] -> Alcotest.fail "docs/SERVING.md: stats table not found"
    | l :: _ as rows when starts_with "|" l -> rows
    | _ :: rest -> skip_to_table rest
  in
  let rec rows acc = function
    | l :: rest when starts_with "| `" l ->
        let name = List.nth (String.split_on_char '`' l) 1 in
        rows (name :: acc) rest
    | l :: rest when starts_with "|" l -> rows acc rest
    | _ -> List.rev acc
  in
  rows [] (skip_to_table (skip_to_para lines))

let test_server_stats_shape () =
  let dir = temp_dir () in
  let cfg =
    { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
      Server.jobs = 1;
      cache_dir = Some (Filename.concat dir "cache") }
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Server.dispatch server (Protocol.Stats Json.Null) with
      | Protocol.Stats_reply { stats = Json.Obj fields; _ } ->
          Alcotest.(check (list string)) "stats members as documented"
            (documented_stats_members ())
            (List.map fst fields)
      | _ -> Alcotest.fail "stats op did not answer a stats object")

let suite =
  [ ( "serve.protocol",
      [ case "error code names" test_error_code_names;
        case "request round trip" test_request_roundtrip;
        case "request defaults" test_request_defaults;
        case "request error paths" test_request_errors;
        case "response round trip" test_response_roundtrip ] );
    ( "serve.cache",
      [ case "cold start creates parents" test_cache_cold_start_creates_parents;
        case "digest-prefix sharding" test_cache_sharding;
        case "legacy flat layout migrates" test_cache_legacy_migration;
        case "LRU eviction order" test_cache_lru_eviction_order;
        case "recency survives reopen" test_cache_recency_survives_reopen ] );
    ( "serve.scheduler",
      [ case "resolution errors" test_scheduler_resolution_errors;
        case "hit, miss and prep sharing" test_scheduler_hit_miss_and_prep_sharing;
        case "no_cache bypasses the cache" test_scheduler_no_cache;
        case "concurrent identical requests coalesce" test_scheduler_coalescing;
        case "queued request times out" test_scheduler_timeout ] );
    ( "serve.server",
      [ case "socket round trip" test_server_socket_roundtrip;
        case "shutdown op can be disabled" test_server_refuses_shutdown_when_disabled;
        case "stats members match docs/SERVING.md" test_server_stats_shape ] ) ]
