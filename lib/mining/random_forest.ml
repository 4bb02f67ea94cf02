(** Random Forest: bagged CART trees with per-split random attribute
    subsets, majority vote.

    Newly selected into the top 3 (Table II): best fallout (pfp), i.e.
    it dismisses the fewest real vulnerabilities. *)

type params = {
  n_trees : int;
  max_depth : int;
}

let default_params = { n_trees = 60; max_depth = 14 }

type t = { trees : Decision_tree.t array }

let train ?(params = default_params) ~seed (d : Dataset.t) : t =
  let n = Dataset.size d in
  let dim =
    match d.Dataset.instances with
    | first :: _ -> Array.length first.Dataset.features
    | [] -> 1
  in
  let rng = Random.State.make [| seed; 15485863 |] in
  let tree_params =
    {
      Decision_tree.max_depth = params.max_depth;
      min_samples = 2;
      feature_subset = Some (Random_tree.subset_size dim);
    }
  in
  let data = Decision_tree.prepare d in
  let trees =
    Array.init params.n_trees (fun i ->
        let bootstrap = Array.init n (fun _ -> Random.State.int rng n) in
        Decision_tree.grow ~params:tree_params ~seed:(seed + (i * 31)) data bootstrap)
  in
  { trees }

let score (m : t) x =
  if Array.length m.trees = 0 then 0.5
  else
    let s =
      Array.fold_left (fun acc t -> acc +. Decision_tree.score t x) 0.0 m.trees
    in
    s /. float_of_int (Array.length m.trees)

let predict (m : t) x = score m x >= 0.5

let model m =
  { Classifier.name = "Random Forest"; predict = predict m; score = score m }

let algorithm : Classifier.algorithm =
  { algo_name = "Random Forest"; train = (fun ~seed d -> model (train ~seed d)) }
