(* Request scheduling for polyflow_serve. See scheduler.mli for the
   contract; the notes here are about the concurrency structure.

   Three kinds of parties touch a scheduler:

   - connection threads (systhreads in the accepting domain) call
     [run]: resolve the request, try the cache, then either join an
     in-flight identical job or enqueue a fresh one and wait;
   - worker domains loop over the job queue, sharing prepared windows
     through [preps] and keeping their per-domain [Engine.Scratch]
     pools warm across requests (that reuse is why the pool is
     persistent domains rather than domain-per-request);
   - the owner eventually calls [shutdown], which lets workers drain
     the queue and then join.

   Everything mutable is guarded by [t.mutex]. Waiting is by polling
   with a short sleep rather than condition variables on the waiter
   side: stdlib [Condition] has no timed wait, per-request deadlines
   need one, and the up-to-1ms wake latency only applies to requests
   that are paying a simulation (or a coalesced join) anyway — cache
   hits never wait. Workers do park on a condition variable, so an idle
   pool burns no cycles. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Counters = Pf_obs.Counters

type resolved = {
  r_workload : Pf_workloads.Workload.t;
  r_wname : string;
  r_policy : Pf_core.Policy.t;
  r_pname : string;
  r_label : string;
  r_window : int;
  r_config : Pf_uarch.Config.t;
  r_digest : string;
  r_no_cache : bool;
}

(* a successful outcome remembers whether it was simulated or served by
   the in-queue cache re-check, so the reply's [cached] flag is truthful
   even for jobs that raced an identical store *)
type job = {
  j_digest : string;
  j_resolved : resolved;
  mutable j_outcome : (Json.t * bool, Protocol.error_code * string) result option;
}

type prep_slot = Building | Ready of Pf_uarch.Run.prepared

type t = {
  jobs : int;
  cache : Run_cache.t option;
  counters : Counters.t;
  c_run_requests : Counters.counter;
  c_coalesced : Counters.counter;
  c_simulations : Counters.counter;
  c_batched : Counters.counter;
  c_prep_builds : Counters.counter;
  c_prep_reuses : Counters.counter;
  c_timeouts : Counters.counter;
  mutex : Mutex.t;
  work : Condition.t;
  queue : job Queue.t;
  pending : (string, job) Hashtbl.t;
  preps : (string * int, prep_slot) Hashtbl.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable prepare_s : float; (* wall seconds spent in prep builds *)
}

(* ---- request resolution ---- *)

let resolve (r : Protocol.run_request) =
  match Pf_workloads.Suite.find r.workload with
  | None ->
      Error
        ( Protocol.Unknown_workload,
          Printf.sprintf "unknown workload %S (known: %s)" r.workload
            (String.concat ", " Pf_workloads.Suite.names) )
  | Some wl -> (
      match Pf_core.Policy.of_string r.policy with
      | Error msg -> Error (Protocol.Unknown_policy, msg)
      | Ok policy -> (
          let pname = Pf_core.Policy.name policy in
          let config =
            match r.config with
            | None ->
                Ok
                  (Sweep.resolve_config
                     (Sweep.spec r.workload policy ?label:r.label
                        ?window:r.window))
            | Some j -> (
                match Pf_report.Codec.config_of_json j with
                | c -> Ok c
                | exception Json.Decode_error msg ->
                    Error
                      ( Protocol.Bad_request,
                        Printf.sprintf "bad \"config\": %s" msg ))
          in
          match config with
          | Error e -> Error e
          | Ok config -> (
              match r.window with
              | Some w when w <= 0 ->
                  Error
                    ( Protocol.Bad_request,
                      Printf.sprintf "\"window\" must be positive (got %d)" w
                    )
              | _ ->
                  let window =
                    Option.value r.window
                      ~default:wl.Pf_workloads.Workload.window
                  in
                  let label = Option.value r.label ~default:pname in
                  Ok
                    { r_workload = wl;
                      r_wname = r.workload;
                      r_policy = policy;
                      r_pname = pname;
                      r_label = label;
                      r_window = window;
                      r_config = config;
                      r_digest =
                        Run_cache.digest ~workload:r.workload ~window
                          ~fast_forward:wl.Pf_workloads.Workload.fast_forward
                          ~policy:pname ~label ~config;
                      r_no_cache = r.no_cache })))

(* ---- prepared-window sharing ----

   One [Run.prepare] per distinct (workload, window) pair, shared by
   every simulation and kept for the life of the daemon: preparation
   (architectural execution + dependence analysis) dominates cold
   latency, and the result is immutable so any number of worker
   domains may simulate from it concurrently (docs/ENGINE.md). The
   [Building] slot makes concurrent first requests for the same window
   build it once: latecomers poll until it is [Ready]. *)

let rec acquire_prep t (r : resolved) =
  let key = (r.r_wname, r.r_window) in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.preps key with
  | Some (Ready prep) ->
      Counters.incr t.c_prep_reuses;
      Mutex.unlock t.mutex;
      prep
  | Some Building ->
      Mutex.unlock t.mutex;
      Unix.sleepf 0.002;
      acquire_prep t r
  | None -> (
      Hashtbl.replace t.preps key Building;
      Mutex.unlock t.mutex;
      let wl = r.r_workload in
      let t0 = Unix.gettimeofday () in
      match
        Pf_uarch.Run.prepare wl.Pf_workloads.Workload.program
          ~setup:wl.Pf_workloads.Workload.setup
          ~fast_forward:wl.Pf_workloads.Workload.fast_forward
          ~window:r.r_window
      with
      | prep ->
          Mutex.lock t.mutex;
          Hashtbl.replace t.preps key (Ready prep);
          Counters.incr t.c_prep_builds;
          t.prepare_s <- t.prepare_s +. (Unix.gettimeofday () -. t0);
          Mutex.unlock t.mutex;
          prep
      | exception e ->
          (* drop the slot so a polling worker can retry (and fail the
             same way if the failure is deterministic) *)
          Mutex.lock t.mutex;
          Hashtbl.remove t.preps key;
          Mutex.unlock t.mutex;
          raise e)

(* ---- workers ---- *)

let cache_find t (r : resolved) =
  match t.cache with
  | Some c when not r.r_no_cache -> Run_cache.find c ~digest:r.r_digest
  | _ -> None

(* build the run record from a finished simulation, count it, store it,
   and return its JSON — common tail of the solo and batched paths *)
let finish_run t (r : resolved) prep ~wall ~metrics ~reg =
  let run =
    { Sweep.workload = r.r_wname;
      label = r.r_label;
      policy = r.r_pname;
      config = r.r_config;
      window = r.r_window;
      instructions = Pf_trace.Tracer.length prep.Pf_uarch.Run.trace;
      static_spawns = List.length prep.Pf_uarch.Run.all_spawns;
      wall_s = wall;
      metrics;
      counters = Counters.to_alist reg }
  in
  let run_json = Sweep.run_to_json run in
  Counters.incr t.c_simulations;
  (match t.cache with
  | Some c -> Run_cache.store c ~digest:r.r_digest run_json
  | None -> ());
  run_json

let publish t job outcome =
  Mutex.lock t.mutex;
  job.j_outcome <- Some outcome;
  Hashtbl.remove t.pending job.j_digest;
  Mutex.unlock t.mutex

let execute_job t (r : resolved) =
  (* an identical request may have stored its result while this job sat
     in the queue; serving it preserves byte-identity and skips work *)
  match cache_find t r with
  | Some run_json -> (run_json, true)
  | None ->
      let prep = acquire_prep t r in
      let reg = Counters.create () in
      let t0 = Unix.gettimeofday () in
      let metrics =
        Pf_uarch.Run.simulate ~counters:reg ~config:r.r_config prep
          ~policy:r.r_policy
      in
      let wall = Unix.gettimeofday () -. t0 in
      (finish_run t r prep ~wall ~metrics ~reg, false)

(* ---- batched execution ----

   A worker drains every queued job that shares the popped job's
   (workload, window) — up to [max_batch] — and answers them with one
   lockstep pass over the shared prepared window
   ([Run.simulate_batch]), instead of one trace pass per job. Results
   are byte-identical to solo simulation (the Engine batch contract),
   so replies and cache entries are unchanged except [wall_s], which
   becomes the member's equal share of the batch wall. *)

let max_batch = 8

(* called with [t.mutex] held and the queue non-empty *)
let pop_batch t =
  let first = Queue.pop t.queue in
  let key = (first.j_resolved.r_wname, first.j_resolved.r_window) in
  let mates = ref [] in
  let nmates = ref 0 in
  let rest = Queue.create () in
  Queue.iter
    (fun job ->
      if
        !nmates < max_batch - 1
        && (job.j_resolved.r_wname, job.j_resolved.r_window) = key
      then begin
        mates := job :: !mates;
        incr nmates
      end
      else Queue.push job rest)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer rest t.queue;
  first :: List.rev !mates

let execute_batch t jobs =
  (* per-job cache re-check, as in [execute_job]: any member stored by
     an identical earlier request is answered without simulating *)
  let misses =
    List.filter
      (fun job ->
        match cache_find t job.j_resolved with
        | Some run_json ->
            publish t job (Ok (run_json, true));
            false
        | None -> true)
      jobs
  in
  match misses with
  | [] -> ()
  | [ job ] ->
      (* a singleton takes the plain solo path *)
      let outcome =
        try Ok (execute_job t job.j_resolved)
        with e -> Error (Protocol.Internal, Printexc.to_string e)
      in
      publish t job outcome
  | _ -> (
      let nb = List.length misses in
      match
        let prep = acquire_prep t (List.hd misses).j_resolved in
        let regs = List.map (fun _ -> Counters.create ()) misses in
        let t0 = Unix.gettimeofday () in
        let metrics =
          Pf_uarch.Run.simulate_batch prep
            (List.map2
               (fun job reg ->
                 Pf_uarch.Run.batch_run ~counters:reg
                   ~config:job.j_resolved.r_config job.j_resolved.r_policy)
               misses regs)
        in
        let wall = (Unix.gettimeofday () -. t0) /. float_of_int nb in
        (prep, regs, metrics, wall)
      with
      | prep, regs, metrics, wall ->
          List.iter
            (fun ((job, reg), m) ->
              Counters.incr t.c_batched;
              publish t job
                (Ok (finish_run t job.j_resolved prep ~wall ~metrics:m ~reg, false)))
            (List.combine (List.combine misses regs) metrics)
      | exception e ->
          (* one member failing fails the whole batch (Engine contract);
             every still-unanswered member learns the same error *)
          let message = Printexc.to_string e in
          List.iter
            (fun job -> publish t job (Error (Protocol.Internal, message)))
            misses)

let worker_loop t prewarm_windows () =
  List.iter
    (fun window -> Pf_uarch.Engine.prewarm_scratch ~window)
    prewarm_windows;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
      (* stopping, and the queue is drained *)
    else begin
      let batch = pop_batch t in
      Mutex.unlock t.mutex;
      execute_batch t batch;
      loop ()
    end
  in
  loop ()

let create ?cache ?(prewarm_windows = []) ~jobs ~counters () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs < 1";
  let t =
    { jobs;
      cache;
      counters;
      c_run_requests = Counters.make counters "run_requests";
      c_coalesced = Counters.make counters "coalesced_requests";
      c_simulations = Counters.make counters "simulations";
      c_batched = Counters.make counters "batched_runs";
      c_prep_builds = Counters.make counters "prep_builds";
      c_prep_reuses = Counters.make counters "prep_reuses";
      c_timeouts = Counters.make counters "request_timeouts";
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      pending = Hashtbl.create 64;
      preps = Hashtbl.create 16;
      stopping = false;
      workers = [];
      prepare_s = 0. }
  in
  t.workers <-
    List.init jobs (fun _ -> Domain.spawn (worker_loop t prewarm_windows));
  t

(* ---- the client-facing entry point ---- *)

let error id code message =
  Protocol.Error_reply { er_id = id; code; message }

let reply (r : Protocol.run_request) ~t0 ~cached ~coalesced ~digest run =
  Protocol.Run_reply
    { rr_id = r.id;
      cached;
      coalesced;
      digest;
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      run }

(* Join the pending job for [digest] or enqueue a fresh one; never
   coalesces a [no_cache] request onto an existing job (it asked for its
   own simulation), but its job is still published for others to join. *)
let join_or_enqueue t (res : resolved) =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    let existing =
      if res.r_no_cache then None
      else Hashtbl.find_opt t.pending res.r_digest
    in
    let job, coalesced =
      match existing with
      | Some job -> (job, true)
      | None ->
          let job =
            { j_digest = res.r_digest; j_resolved = res; j_outcome = None }
          in
          Hashtbl.replace t.pending res.r_digest job;
          Queue.push job t.queue;
          Condition.signal t.work;
          (job, false)
    in
    if coalesced then Counters.incr t.c_coalesced;
    Mutex.unlock t.mutex;
    Some (job, coalesced)
  end

let run t ?(default_timeout_ms = 0) (r : Protocol.run_request) =
  let t0 = Unix.gettimeofday () in
  Counters.incr t.c_run_requests;
  match resolve r with
  | Error (code, message) -> error r.id code message
  | Ok res -> (
      match cache_find t res with
      | Some run_json ->
          reply r ~t0 ~cached:true ~coalesced:false ~digest:res.r_digest
            run_json
      | None -> (
          match join_or_enqueue t res with
          | None ->
              error r.id Protocol.Shutting_down
                "daemon is shutting down; request not accepted"
          | Some (job, coalesced) ->
              let timeout_ms =
                Option.value r.timeout_ms ~default:default_timeout_ms
              in
              let deadline =
                if timeout_ms <= 0 then infinity
                else t0 +. (float_of_int timeout_ms /. 1000.)
              in
              let rec wait () =
                Mutex.lock t.mutex;
                let outcome = job.j_outcome in
                Mutex.unlock t.mutex;
                match outcome with
                | Some (Ok (run_json, from_cache)) ->
                    reply r ~t0 ~cached:from_cache ~coalesced
                      ~digest:res.r_digest run_json
                | Some (Error (code, message)) -> error r.id code message
                | None ->
                    if Unix.gettimeofday () > deadline then begin
                      Counters.incr t.c_timeouts;
                      error r.id Protocol.Timeout
                        (Printf.sprintf
                           "no result within %d ms (the simulation keeps \
                            running and will be served from cache)"
                           timeout_ms)
                    end
                    else begin
                      Unix.sleepf 0.001;
                      wait ()
                    end
              in
              wait ()))

(* ---- introspection and shutdown ---- *)

let stats_fields t =
  Mutex.lock t.mutex;
  let inflight = Hashtbl.length t.pending in
  let queued = Queue.length t.queue in
  let prepared = Hashtbl.length t.preps in
  let prepare_ms = 1000. *. t.prepare_s in
  Mutex.unlock t.mutex;
  [ ("jobs", Json.Int t.jobs);
    ("inflight", Json.Int inflight);
    ("queued", Json.Int queued);
    ("prepared_windows", Json.Int prepared);
    ("prepare_ms", Json.Float prepare_ms);
    ( "cache",
      match t.cache with
      | None -> Json.Null
      | Some c ->
          let s = Run_cache.stats c in
          Json.Obj
            [ ("dir", Json.String (Run_cache.dir c));
              ("cap", Json.Int (Run_cache.cap c));
              ("entries", Json.Int s.Run_cache.entries);
              ("hits", Json.Int s.Run_cache.hits);
              ("misses", Json.Int s.Run_cache.misses);
              ("stores", Json.Int s.Run_cache.stores);
              ("evictions", Json.Int s.Run_cache.evictions) ] );
    ("counters", Counters.to_json t.counters) ]

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []
