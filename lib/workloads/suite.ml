let builders =
  [ W_bzip2.workload; W_crafty.workload; W_gap.workload; W_gcc.workload;
    W_gzip.workload; W_mcf.workload; W_parser.workload; W_perlbmk.workload;
    W_twolf.workload; W_vortex.workload; W_vpr_place.workload;
    W_vpr_route.workload ]
  @ Loopnest.registered

(* Every builder compiles its Mini source, so each runs exactly once,
   here; lookups then share the built values. *)
let built = List.map (fun f -> f ()) builders

let by_name =
  let t = Hashtbl.create 32 in
  List.iter
    (fun w ->
      let name = w.Workload.name in
      if Hashtbl.mem t name then
        invalid_arg ("Suite: duplicate workload name " ^ name);
      Hashtbl.add t name w)
    built;
  t

let all () = built

let find name = Hashtbl.find_opt by_name name

let names = List.map (fun w -> w.Workload.name) built

(* The paper's figures sweep only the 12 SPEC-shaped kernels; the
   loop-nest family has its own figure (bench --loopnest). *)
let spec_names = List.filteri (fun i _ -> i < 12) names
