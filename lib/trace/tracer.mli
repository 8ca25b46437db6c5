(** Capture an execution window from the architectural simulator
    (Section 3.2 of the paper: fast-forward through initialisation, then
    simulate a fixed number of instructions). *)

type t = {
  dyns : Dyn.t array;
  fast_forwarded : int; (** instructions skipped before the window *)
}

(** [capture machine ~fast_forward ~window] skips [fast_forward]
    instructions, then records up to [window] instructions (fewer if the
    program halts). Dependence fields are left unfilled; run
    {!Depinfo.compute} next. *)
val capture : Pf_isa.Machine.t -> fast_forward:int -> window:int -> t

(** The event buffer behind {!capture}: feed events to the first
    function, then call the second for the collected records. Sized to
    [window] up front; grows (doubling) if more events arrive, which no
    well-behaved machine produces — exposed so the growth path is
    testable. *)
val collector :
  window:int -> (Pf_isa.Machine.event -> unit) * (unit -> Dyn.t array)

val length : t -> int
