(** A small deterministic PRNG (splitmix64-style): workloads are
    reproducible across runs and independent of the global [Random]
    state. *)

type t

val create : seed:int -> t
val int : t -> int -> int
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val below : t -> float -> bool
(** [below t p] is [float t < p] — the same draw — without boxing the
    float for a caller in another module. *)

val bool : t -> bool
