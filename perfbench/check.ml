(* Correctness gate.

   figure-grid runs are checked against perfbench/expected/figure_grid.txt:
   one line per (workload, label) holding the run's cycles, instructions
   and a digest of its counters. Serve replies are checked against the
   record Sweep.execute ~jobs:1 produces for the same spec, apart from
   wall_s. *)

module Sweep = Pf_report.Sweep

let expect_file = "perfbench/expected/figure_grid.txt"

let line_of (r : Sweep.run) =
  let counters =
    Pf_json.Json.to_string (Pf_report.Codec.counters_to_json r.counters)
  in
  String.concat "\t"
    [ r.workload; r.label;
      string_of_int r.metrics.Pf_uarch.Metrics.cycles;
      string_of_int r.instructions;
      Digest.to_hex (Digest.string counters) ]

let record_expectation path runs =
  let lines = List.sort compare (List.map line_of runs) in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let load_expectation path =
  let ic = open_in path in
  let tbl = Hashtbl.create 512 in
  (try
     while true do
       let l = input_line ic in
       match String.split_on_char '\t' l with
       | w :: label :: _ -> Hashtbl.replace tbl (w, label) l
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* (attempted, failed) of a sweep's [runs] against the expectation
   lines of the workloads [in_use] accepts: a run that differs from its
   line or has none, and a line that no run answers, each count as one
   failure *)
let grid_check expect ~in_use runs =
  let seen = Hashtbl.create 512 in
  let wrong =
    List.fold_left
      (fun bad (r : Sweep.run) ->
        Hashtbl.replace seen (r.workload, r.label) ();
        match Hashtbl.find_opt expect (r.workload, r.label) with
        | Some l when l = line_of r -> bad
        | _ ->
            Printf.eprintf "perfbench: figure-grid mismatch on %s/%s\n%!"
              r.workload r.label;
            bad + 1)
      0 runs
  in
  let missing =
    Hashtbl.fold
      (fun (w, label) _ n ->
        if in_use w && not (Hashtbl.mem seen (w, label)) then begin
          Printf.eprintf "perfbench: figure-grid has no run for %s/%s\n%!" w label;
          n + 1
        end
        else n)
      expect 0
  in
  (List.length runs + missing, wrong + missing)

(* ---- serve references ---- *)

let normalised_bytes r =
  Pf_json.Json.to_string (Sweep.run_to_json (Client.normalise r))

(* Reference records of distinct [specs] and their [runs], keyed by
   Gen.key, valued by the normalised record bytes *)
let table specs runs =
  let tbl = Hashtbl.create 128 in
  List.iter2
    (fun s r -> Hashtbl.replace tbl (Gen.key s) (normalised_bytes r))
    specs runs;
  tbl

let matches refs (s : Sweep.spec) (r : Sweep.run) =
  Hashtbl.find_opt refs (Gen.key s) = Some (normalised_bytes r)
