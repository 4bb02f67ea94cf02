(** Common interface for the machine-learning classifiers.

    Every model predicts whether a candidate vulnerability is a false
    positive ([true]) from its binary attribute vector.  All training is
    deterministic given the seed so the experiment tables are
    reproducible. *)

type model = {
  name : string;
  predict : float array -> bool;
  score : float array -> float;  (** confidence in the FP class, in [0,1] *)
}

type algorithm = {
  algo_name : string;
  train : seed:int -> Dataset.t -> model;
}

let predict m x = m.predict x
let score m x = m.score x

(* small shared helpers *)

let dot w x =
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (w.(i) *. x.(i))
  done;
  !s

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

(* Training loops visit only the nonzero entries of a vector.  Skipping
   a zero entry is exact: it would add [w *. 0. = ±0.] to a running sum
   that starts at [+0.] and so never becomes [-0.], which leaves the
   sum unchanged. *)

type sparse = { idx : int array; vals : float array }

let sparse x =
  let idx =
    List.init (Array.length x) Fun.id
    |> List.filter (fun i -> x.(i) <> 0.0)
    |> Array.of_list
  in
  { idx; vals = Array.map (fun i -> x.(i)) idx }

let sparse_dot w s =
  let acc = ref 0.0 in
  for k = 0 to Array.length s.idx - 1 do
    acc := !acc +. (w.(s.idx.(k)) *. s.vals.(k))
  done;
  !acc
