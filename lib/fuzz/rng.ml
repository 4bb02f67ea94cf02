(* SplitMix64.  Deterministic across OCaml versions and platforms, which
   the stdlib Random is not guaranteed to be: a fuzz seed checked into
   the repository must reproduce the same program forever. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create ~seed =
  (* Pre-mix so that nearby seeds do not yield overlapping streams. *)
  { state = Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t n = if n <= 0 then invalid_arg "Rng.int: bound must be positive" else bits t mod n

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* [chance t num den] is true with probability num/den. *)
let chance t num den = int t den < num

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted: weights must sum > 0";
  let roll = int t total in
  let rec go acc = function
    | [] -> assert false
    | (w, x) :: rest -> if roll < acc + w then x else go (acc + w) rest
  in
  go 0 choices
