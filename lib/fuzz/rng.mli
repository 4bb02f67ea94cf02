(** Deterministic pseudo-random number generator (SplitMix64).

    The fuzzer cannot use [Stdlib.Random]: its algorithm has changed
    between OCaml releases, and a regression seed checked into
    [test/fuzz_seeds/] must regenerate the identical program on every
    toolchain.  SplitMix64 is fully specified and fast. *)

type t

val create : seed:int -> t

(** Uniform in [\[0, n)].  @raise Invalid_argument when [n <= 0]. *)
val int : t -> int -> int

(** Uniform in [\[lo, hi\]] inclusive. *)
val range : t -> int -> int -> int

val bool : t -> bool

(** [chance t num den] is [true] with probability [num/den]. *)
val chance : t -> int -> int -> bool

(** Uniform choice.  @raise Invalid_argument on an empty list. *)
val pick : t -> 'a list -> 'a

(** Weighted choice over [(weight, value)] pairs. *)
val weighted : t -> (int * 'a) list -> 'a

(** Raw 62-bit non-negative draw. *)
val bits : t -> int
