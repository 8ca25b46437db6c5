(** The benchmark suite: one workload per SPEC2000 integer benchmark the
    paper evaluates, in the paper's figure order, followed by the
    registered members of the parameterized loop-nest family
    ({!Loopnest}).

    Every workload is built (its Mini source compiled) once, when this
    module is initialised. {!all} and {!find} return those shared
    values: they are never mutated, and their [setup] can be re-run
    (see {!Workload.t}), so any caller on any domain may use them
    without locks or copies.

    @raise Invalid_argument at initialisation if two registered
    workloads share a name. *)

val all : unit -> Workload.t list

(** Lookup by name ("twolf", "vpr.route", "loopnest.d4.unit.n1", ...):
    a hash-table probe, returning the same value on every call. *)
val find : string -> Workload.t option

(** The names of {!all}, in the same order. *)
val names : string list

(** Just the 12 SPEC-shaped kernels — the paper-figure grid. The
    loop-nest members are swept by their own figure
    ([bench/main.exe --loopnest]). *)
val spec_names : string list
