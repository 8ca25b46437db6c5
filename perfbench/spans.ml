(* In-memory span recorder for the traced run.

   A span is a named interval around one call into a layer, with the
   span that caused it as parent and the request it served. Spans are
   kept in memory and reduced to per-layer figures after the run. A
   recorder is used from one domain at a time. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  req : int;     (** the request (or spec) index the span served *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

let create () = { spans = []; next = 0; stack = [] }

let now = Unix.gettimeofday

(* [record t ~req name f] runs [f ()] inside a span nested under the
   innermost open span *)
let record t ~req name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; req; name; t0; t1 } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let duration s = s.t1 -. s.t0

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (spans t)

(* Self time per span name: a span's duration minus the part of it its
   direct children cover (children never overlap: they are opened and
   closed in sequence on one domain), summed over every span of that
   name. *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. duration s))
    t.spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let prev = Option.value (Hashtbl.find_opt self s.name) ~default:0. in
      Hashtbl.replace self s.name (prev +. duration s -. covered))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare
