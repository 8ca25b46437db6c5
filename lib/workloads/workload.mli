(** A benchmark: a compiled program plus its data initialisation and
    simulation parameters. One workload per SPEC2000 integer benchmark
    the paper evaluates (Section 3.2), each built to exhibit the
    control-flow and memory behaviour the paper attributes to it. *)

type t = {
  name : string;
  description : string;
  program : Pf_isa.Program.t;
  setup : Pf_isa.Machine.t -> unit;
      (** data initialisation before running. It must be re-entrant:
          {!Suite} shares one built value with every caller and domain,
          so each call creates its own {!Rng} inside the closure (never
          at build time) and writes only the machine it is given. Two
          fresh machines set up by it end in the same state. *)
  fast_forward : int;               (** instructions to skip (program init) *)
  window : int;                     (** default simulation window *)
  result_addr : int;                (** address of the program's 8-byte result
                                        (for oracle checks), -1 if none *)
  mini : Pf_mini.Ast.program option;
      (** the Mini source when built with {!of_mini}, so differential
          tests can re-interpret the workload against the machine *)
}

(** [of_mini ~name ~description ~fast_forward ~window prog init] compiles
    a Mini program; [init] receives the machine and the global address
    lookup. *)
val of_mini :
  name:string ->
  description:string ->
  fast_forward:int ->
  window:int ->
  Pf_mini.Ast.program ->
  (Pf_isa.Machine.t -> (string -> int) -> unit) ->
  t

(** {1 Data-initialisation helpers} *)

(** [fill_words rng m ~base ~words ~mask] writes [words] random 64-bit
    values (masked with [mask]) starting at [base]. *)
val fill_words : Rng.t -> Pf_isa.Machine.t -> base:int -> words:int -> mask:int64 -> unit

(** [fill_permutation rng m ~base ~slots ~stride] writes a random cyclic
    permutation over [slots] records of [stride] bytes starting at
    [base]: word 0 of each record holds the address of its successor,
    producing a pointer chain that touches every record in random order
    (cache-hostile pointer chasing). *)
val fill_permutation :
  Rng.t -> Pf_isa.Machine.t -> base:int -> slots:int -> stride:int -> unit
