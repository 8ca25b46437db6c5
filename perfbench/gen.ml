(* Seeded inputs of the three workloads. The seed reaches nothing but
   these generators: the program under test only ever sees the spec
   lists and request streams built here. *)

module Sweep = Pf_report.Sweep
module Config = Pf_uarch.Config
module Policy = Pf_core.Policy

(* the generator of round [round] of a run seeded [seed] *)
let rng ?(round = 0) seed = Random.State.make [| 0x5eed; seed; round |]

(* Fisher-Yates over a copy *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ---- figure-grid: the paper grid bench/main.exe sweeps ----

   Figures 9-12 and the related-work policies, task scaling, the eight
   design ablations and split spawning on every SPEC-shaped workload,
   plus the window-sensitivity runs: 360 specs. *)

let grid_policies =
  let all =
    Policy.(
      (No_spawn :: figure9_policies) @ figure10_policies @ figure11_policies
      @ figure12_policies @ [ Dmt; Adaptive ])
  in
  List.fold_left
    (fun acc p ->
      if List.exists (fun q -> Policy.name q = Policy.name p) acc then acc
      else acc @ [ p ])
    [] all

let postdoms_variants =
  let pf = Config.polyflow in
  [ ("postdoms@tasks=2", { pf with Config.max_tasks = 2 });
    ("postdoms@tasks=4", { pf with Config.max_tasks = 4 });
    ("postdoms@icount", { pf with Config.biased_fetch = false });
    ("postdoms@shared-history", { pf with Config.shared_history = true });
    ("postdoms@no-rob-shares", { pf with Config.rob_shares = false });
    ("postdoms@no-divert-chains", { pf with Config.divert_chains = false });
    ("postdoms@no-sp-hint", { pf with Config.sp_hint = false });
    ("postdoms@no-feedback", { pf with Config.feedback = false });
    ("postdoms@dist=4096", { pf with Config.max_spawn_distance = 4096 });
    ("postdoms@dist=128", { pf with Config.max_spawn_distance = 128 });
    ("postdoms@split", { pf with Config.split_spawning = true }) ]

let sensitivity_windows = [ 15_000; 30_000; 60_000 ]
let sensitivity_workloads = [ "crafty"; "mcf"; "perlbmk"; "twolf" ]

(* canonical (unseeded) order *)
let figure_grid () =
  let per_workload w =
    List.map (fun p -> Sweep.spec w p) grid_policies
    @ List.map
        (fun (label, config) -> Sweep.spec w Policy.Postdoms ~label ~config)
        postdoms_variants
  in
  let sensitivity w =
    List.concat_map
      (fun window ->
        [ Sweep.spec w Policy.No_spawn ~window
            ~label:(Printf.sprintf "superscalar@win=%d" window);
          Sweep.spec w Policy.Postdoms ~window
            ~label:(Printf.sprintf "postdoms@win=%d" window) ])
      sensitivity_windows
  in
  List.concat_map per_workload Pf_workloads.Suite.spec_names
  @ List.concat_map sensitivity sensitivity_workloads

(* the seed only permutes the order the specs are handed to the sweep *)
let figure_grid_seeded ~seed = shuffle (rng seed) (figure_grid ())

(* ---- serve workloads ---- *)

let policy p =
  match Policy.of_string p with
  | Ok p -> p
  | Error msg -> invalid_arg msg

(* serve-hit: every SPEC workload under four policies at window 4000 *)
let hit_window = 4_000
let hit_policies = [ "superscalar"; "postdoms"; "rec_pred"; "adaptive" ]

let hit_specs () =
  List.concat_map
    (fun w ->
      List.map
        (fun p -> Sweep.spec w (policy p) ~window:hit_window)
        hit_policies)
    Pf_workloads.Suite.spec_names

(* [n] draws over the 48 populated specs, each request uniform over
   them; the draws are balanced (every spec appears n/48 times, the
   remainder drawn at random) so that the seed and the round change the
   order of the work but hardly its amount *)
let hit_stream ?round ~seed ~n () =
  let st = rng ?round seed in
  let specs = hit_specs () in
  let k = List.length specs in
  let balanced = List.concat (List.init (n / k) (fun _ -> specs)) in
  let rest =
    List.init (n mod k) (fun _ -> List.nth specs (Random.State.int st k))
  in
  shuffle st (balanced @ rest)

(* serve-miss: one policy per policy class, a handful of windows *)
let miss_policies =
  [ "superscalar"; "loop+loopFT"; "postdoms"; "postdoms-hammock"; "rec_pred";
    "dmt"; "adaptive"; "doacross" ]

let miss_windows = [ 3_000; 6_000; 9_000; 12_000 ]

(* Every (workload, policy) pair is requested once, at a window dealt
   so that each window gets two of a workload's eight policies: policy
   [j] of the [i]th workload runs at window [(i + j) mod 4], which over
   the twelve workloads gives every policy every window three times.
   Every stream therefore prepares the same 48 windows and simulates the
   same 96 runs; the seed and the round pick the request order and the
   repeats. The other [n] - 96 requests (for [n] >= 96; one in five of a
   shorter stream) repeat an earlier spec, so each becomes a cache hit
   or joins the in-flight simulation of its twin. The first request is
   fresh; the positions of the repeats are a seeded shuffle, so their
   number never depends on the seed. *)
let miss_stream ?round ~seed ~n () =
  let st = rng ?round seed in
  let nwin = List.length miss_windows in
  let dealt =
    List.concat
      (List.mapi
         (fun i w ->
           List.mapi
             (fun j p -> ((w, List.nth miss_windows ((i + j) mod nwin)), p))
             miss_policies)
         Pf_workloads.Suite.spec_names)
  in
  let fresh =
    shuffle st dealt
    |> List.map (fun ((w, window), p) -> Sweep.spec w (policy p) ~window)
    |> Array.of_list
  in
  let nfresh = Array.length fresh in
  let repeats = if n >= nfresh then n - nfresh else n / 5 in
  let slots =
    false
    :: shuffle st (List.init (n - 1) (fun i -> i < repeats))
  in
  let next = ref 0 in
  List.map
    (fun repeat ->
      if repeat then fresh.(Random.State.int st !next)
      else begin
        incr next;
        fresh.(!next - 1)
      end)
    slots

(* ---- spec helpers ---- *)

(* default windows, built once so the benchmark's own bookkeeping never
   adds workload lookups of its own *)
let default_windows =
  lazy
    (List.map
       (fun (wl : Pf_workloads.Workload.t) -> (wl.name, wl.window))
       (Pf_workloads.Suite.all ()))

let window_of (s : Sweep.spec) =
  match s.window with
  | Some w -> w
  | None -> List.assoc s.workload (Lazy.force default_windows)

let key (s : Sweep.spec) = (s.workload, s.label, window_of s)

(* first occurrence of every distinct spec, in stream order *)
let unique specs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun s ->
      let k = key s in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    specs

(* [specs] split into groups a single Sweep.execute accepts (each
   (workload, label) once): one group per window, in window order *)
let by_window specs =
  List.sort_uniq compare (List.map window_of specs)
  |> List.map (fun w -> List.filter (fun s -> window_of s = w) specs)
