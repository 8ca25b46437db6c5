open Pf_uarch

type spec = {
  workload : string;
  policy : Pf_core.Policy.t;
  label : string;
  config : Config.t option;
  window : int option;
}

let spec ?label ?config ?window workload policy =
  let label =
    match label with Some l -> l | None -> Pf_core.Policy.name policy
  in
  { workload; policy; label; config; window }

type run = {
  workload : string;
  label : string;
  policy : string;
  config : Config.t;
  window : int;
  instructions : int;
  static_spawns : int;
  wall_s : float;
  metrics : Metrics.t;
  counters : (string * int) list;
}

type prepared_window = {
  pw_workload : string;
  pw_window : int;
  pw_prepare_s : float;
  prep : Run.prepared;
}

(* ---- the worker pool ----

   Work items are claimed with an atomic counter; each result slot is
   written by exactly one domain and read only after [Domain.join], so
   no further synchronisation is needed. Item functions must not print:
   only the calling domain touches stdout/stderr (via [progress]). *)

let map_pool ?progress ~jobs ~offset ~total f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let notify done_ =
    match progress with Some p -> p ~done_:(offset + done_) ~total | None -> ()
  in
  if jobs <= 1 || n <= 1 then
    Array.iteri
      (fun i x ->
        results.(i) <- Some (try Ok (f x) with e -> Error e);
        notify (i + 1))
      arr
  else begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    (* completion events wake the calling domain through a condition
       variable, so progress is reported per completion and the pool
       returns as soon as the last item finishes instead of sleeping out
       a fixed-step poll *)
    let mutex = Mutex.create () in
    let cond = Condition.create () in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e);
          Atomic.incr completed;
          Mutex.lock mutex;
          Condition.signal cond;
          Mutex.unlock mutex;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    let reported = ref 0 in
    while !reported < n do
      Mutex.lock mutex;
      while Atomic.get completed = !reported do
        Condition.wait cond mutex
      done;
      Mutex.unlock mutex;
      reported := Atomic.get completed;
      notify !reported
    done;
    List.iter Domain.join domains
  end;
  (* propagate the first failure deterministically: the lowest-index
     item's exception, independent of which worker hit it or when *)
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false)
    results

(* ---- run (de)serialization ----

   Defined ahead of [execute] because the result cache stores and
   replays exactly this encoding. *)

let run_to_json r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("label", Json.String r.label);
      ("policy", Json.String r.policy);
      ("window", Json.Int r.window);
      ("instructions", Json.Int r.instructions);
      ("static_spawns", Json.Int r.static_spawns);
      ("wall_s", Json.Float r.wall_s);
      ("config", Codec.config_to_json r.config);
      ("metrics", Codec.metrics_to_json r.metrics);
      ("counters", Codec.counters_to_json r.counters) ]

let run_of_json j =
  { workload = Json.to_str (Json.member "workload" j);
    label = Json.to_str (Json.member "label" j);
    policy = Json.to_str (Json.member "policy" j);
    window = Json.to_int (Json.member "window" j);
    instructions = Json.to_int (Json.member "instructions" j);
    static_spawns = Json.to_int (Json.member "static_spawns" j);
    wall_s = Json.to_float (Json.member "wall_s" j);
    config = Codec.config_of_json (Json.member "config" j);
    metrics = Codec.metrics_of_json (Json.member "metrics" j);
    (* additive schema-v1 field: absent in documents written before the
       counter registry existed *)
    counters =
      (match Json.member_opt "counters" j with
      | Some c -> Codec.counters_of_json c
      | None -> []) }

(* ---- sweep execution ---- *)

let resolve_config (s : spec) =
  match (s.config, s.policy) with
  | Some c, _ -> c
  | None, Pf_core.Policy.No_spawn -> Config.superscalar
  | None, Pf_core.Policy.Adaptive -> Config.adaptive
  | None, Pf_core.Policy.Doacross -> Config.doacross
  | None, _ -> Config.polyflow

type exec_stats = {
  cached_runs : int;
  simulated_runs : int;
  batched_runs : int;
  batch_count : int;
  prepare_ms : float;
}

(* split [l] into consecutive chunks of at most [k] elements *)
let chunk k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let execute ?progress ?cache ?(batch = 8) ?on_stats ~jobs specs =
  let specs = Array.of_list specs in
  let workload_of name =
    match Pf_workloads.Suite.find name with
    | Some w -> w
    | None -> invalid_arg (Printf.sprintf "Sweep.execute: unknown workload %S" name)
  in
  let resolved =
    Array.map
      (fun (s : spec) ->
        let wl = workload_of s.workload in
        let window =
          match s.window with
          | Some w -> w
          | None -> wl.Pf_workloads.Workload.window
        in
        (s, wl, window))
      specs
  in
  let seen = Hashtbl.create (Array.length specs) in
  Array.iter
    (fun ((s : spec), _, _) ->
      let key = (s.workload, s.label) in
      if Hashtbl.mem seen key then
        invalid_arg
          (Printf.sprintf "Sweep.execute: duplicate run %s/%s" s.workload
             s.label);
      Hashtbl.add seen key ())
    resolved;
  (* distinct (workload, window) pairs, in first-use order *)
  let keys =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    Array.iter
      (fun ((s : spec), wl, window) ->
        let key = (s.workload, window) in
        if not (Hashtbl.mem tbl key) then begin
          Hashtbl.add tbl key ();
          order := (s.workload, wl, window) :: !order
        end)
      resolved;
    Array.of_list (List.rev !order)
  in
  (* ---- cache probe (calling domain) ----
     A hit replays the stored run verbatim (its original [wall_s]
     included, so a fully-hit sweep reproduces its document byte for
     byte); the misses left over are what gets simulated. Probing up
     front — instead of inside the worker items — is what lets the
     misses be grouped into lockstep batches below; the probe itself is
     cheap (one small JSON file per spec). *)
  let nspec = Array.length resolved in
  let results : run option array = Array.make nspec None in
  let digest_of = Array.make nspec "" in
  Array.iteri
    (fun i ((s : spec), wl, window) ->
      match cache with
      | None -> ()
      | Some c -> (
          let d =
            Run_cache.digest ~workload:s.workload ~window
              ~fast_forward:wl.Pf_workloads.Workload.fast_forward
              ~policy:(Pf_core.Policy.name s.policy) ~label:s.label
              ~config:(resolve_config s)
          in
          digest_of.(i) <- d;
          match Run_cache.find c ~digest:d with
          | None -> ()
          | Some j -> (
              (* a corrupt entry must never kill the sweep: any decode
                 failure downgrades to a miss *)
              let decoded = try Some (run_of_json j) with _ -> None in
              match decoded with
              | Some r when r.workload = s.workload && r.label = s.label ->
                  results.(i) <- Some r
              | _ ->
                  Printf.eprintf
                    "Run_cache: ignoring %s/%s entry that fails to decode; \
                     will resimulate\n\
                     %!"
                    s.workload s.label)))
    resolved;
  let cached_runs =
    Array.fold_left
      (fun a -> function Some _ -> a + 1 | None -> a)
      0 results
  in
  (* ---- batch formation ----
     Cache-miss specs that share a (workload, window) — and therefore a
     prepared window and its fast-forward — are grouped in first-use
     order and chunked to at most [batch] members; each group becomes
     one work item simulated by a single lockstep pass over the shared
     trace (Run.simulate_batch). Isolated misses stay solo items. *)
  let batch = max 1 batch in
  let groups : (string * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  Array.iteri
    (fun i ((s : spec), _, window) ->
      if results.(i) = None then begin
        let key = (s.workload, window) in
        match Hashtbl.find_opt groups key with
        | Some l -> l := i :: !l
        | None ->
            let l = ref [ i ] in
            Hashtbl.add groups key l;
            group_order := key :: !group_order
      end)
    resolved;
  let batches =
    List.concat_map
      (fun key -> chunk batch (List.rev !(Hashtbl.find groups key)))
      (List.rev !group_order)
    |> List.map Array.of_list
    |> Array.of_list
  in
  let batched_runs =
    Array.fold_left
      (fun a b -> if Array.length b >= 2 then a + Array.length b else a)
      0 batches
  in
  let batch_count =
    Array.fold_left
      (fun a b -> if Array.length b >= 2 then a + 1 else a)
      0 batches
  in
  let total = Array.length keys + Array.length batches in
  let prepared =
    map_pool ?progress ~jobs ~offset:0 ~total
      (fun (name, wl, window) ->
        let t0 = Unix.gettimeofday () in
        let prep =
          Run.prepare wl.Pf_workloads.Workload.program
            ~setup:wl.Pf_workloads.Workload.setup
            ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window
        in
        { pw_workload = name;
          pw_window = window;
          pw_prepare_s = Unix.gettimeofday () -. t0;
          prep })
      keys
  in
  let prep_index = Hashtbl.create 16 in
  Array.iter
    (fun pw -> Hashtbl.replace prep_index (pw.pw_workload, pw.pw_window) pw.prep)
    prepared;
  (* one work item per batch: simulate the members in lockstep against
     the shared prepared window, then store each member's record.
     [wall_s] of a batch member is its equal share of the batch wall
     (the per-run cost actually paid); a solo item keeps its own wall. *)
  let exec_batch idxs =
    let (s0 : spec), _, window0 = resolved.(idxs.(0)) in
    let prep = Hashtbl.find prep_index (s0.workload, window0) in
    let nb = Array.length idxs in
    let regs = Array.map (fun _ -> Pf_obs.Counters.create ()) idxs in
    let t0 = Unix.gettimeofday () in
    let metrics =
      if nb = 1 then
        let (s : spec), _, _ = resolved.(idxs.(0)) in
        [ Run.simulate ~counters:regs.(0) ~config:(resolve_config s) prep
            ~policy:s.policy ]
      else
        Run.simulate_batch prep
          (List.init nb (fun k ->
               let (s : spec), _, _ = resolved.(idxs.(k)) in
               Run.batch_run ~counters:regs.(k) ~config:(resolve_config s)
                 s.policy))
    in
    let wall = (Unix.gettimeofday () -. t0) /. float_of_int nb in
    List.mapi
      (fun k m ->
        let i = idxs.(k) in
        let (s : spec), _, window = resolved.(i) in
        let r =
          { workload = s.workload;
            label = s.label;
            policy = Pf_core.Policy.name s.policy;
            config = resolve_config s;
            window;
            instructions = Pf_trace.Tracer.length prep.Run.trace;
            static_spawns = List.length prep.Run.all_spawns;
            wall_s = wall;
            metrics = m;
            counters = Pf_obs.Counters.to_alist regs.(k) }
        in
        (match cache with
        | Some c -> Run_cache.store c ~digest:digest_of.(i) (run_to_json r)
        | None -> ());
        (i, r))
      metrics
  in
  let out =
    map_pool ?progress ~jobs ~offset:(Array.length keys) ~total exec_batch
      batches
  in
  Array.iter (List.iter (fun (i, r) -> results.(i) <- Some r)) out;
  (match on_stats with
  | Some f ->
      f
        { cached_runs;
          simulated_runs = nspec - cached_runs;
          batched_runs;
          batch_count;
          prepare_ms =
            1000.
            *. Array.fold_left
                 (fun a pw -> a +. pw.pw_prepare_s)
                 0. prepared }
  | None -> ());
  let runs =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  in
  (runs, Array.to_list prepared)

(* ---- documents ---- *)

type t = {
  manifest : Manifest.t;
  runs : run list;
  extras : (string * Json.t) list;
}

let document ?(extras = []) ~tool ~jobs ~wall_s runs =
  { manifest = Manifest.create ~tool ~jobs ~wall_s; runs; extras }

let to_json t =
  Json.Obj
    ([ ("schema_version", Json.Int t.manifest.Manifest.schema_version);
       ("manifest", Manifest.to_json t.manifest);
       ("runs", Json.List (List.map run_to_json t.runs)) ]
    @ if t.extras = [] then [] else [ ("extras", Json.Obj t.extras) ])

let of_json j =
  let manifest = Manifest.of_json (Json.member "manifest" j) in
  let top_version = Json.to_int (Json.member "schema_version" j) in
  if top_version <> manifest.Manifest.schema_version then
    raise
      (Json.Decode_error
         "schema_version disagrees between document and manifest");
  { manifest;
    runs = List.map run_of_json (Json.to_list (Json.member "runs" j));
    extras =
      (match Json.member_opt "extras" j with
      | Some (Json.Obj fields) -> fields
      | _ -> []) }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json t));
      output_char oc '\n')

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.of_string text)

(* ---- CSV ---- *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

let csv_line cells = String.concat "," (List.map csv_cell cells)

let to_csv t =
  let header =
    [ "workload"; "label"; "policy"; "window"; "static_spawns"; "wall_s" ]
    @ Codec.metrics_csv_header
  in
  let row r =
    [ r.workload; r.label; r.policy; string_of_int r.window;
      string_of_int r.static_spawns; Printf.sprintf "%.3f" r.wall_s ]
    @ Codec.metrics_csv_cells r.metrics
  in
  String.concat "\n" (csv_line header :: List.map (fun r -> csv_line (row r)) t.runs)
  ^ "\n"
