type t = {
  dyns : Dyn.t array;
  fast_forwarded : int;
}

(* the window size bounds the event count, so the buffer is allocated
   once up front (sized lazily off the first event — Dyn.t has no
   neutral element) instead of cons/rev/of_list'ing every record *)
let collector ~window =
  let buf = ref [||] in
  let count = ref 0 in
  let on_event ev =
    let d = Dyn.of_event ev in
    if !count = Array.length !buf then
      if !count = 0 then buf := Array.make (max window 1) d
      else begin
        (* defensive: only reachable if the machine emits more events
           than [max_instrs] asked for *)
        let grown = Array.make (2 * !count) d in
        Array.blit !buf 0 grown 0 !count;
        buf := grown
      end;
    !buf.(!count) <- d;
    incr count
  in
  let finish () =
    if !count = Array.length !buf then !buf else Array.sub !buf 0 !count
  in
  (on_event, finish)

let capture machine ~fast_forward ~window =
  let skipped = Pf_isa.Machine.skip machine fast_forward in
  let on_event, finish = collector ~window in
  ignore (Pf_isa.Machine.run machine ~max_instrs:window ~on_event);
  { dyns = finish (); fast_forwarded = skipped }

let length t = Array.length t.dyns
