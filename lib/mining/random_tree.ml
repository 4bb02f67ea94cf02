(** Random Tree: a single decision tree that examines a random subset of
    attributes at each split (as in WEKA).

    Part of the original WAP's top 3; replaced by Random Forest in the
    new version (Section III-B1). *)

let subset_size dim = max 1 (int_of_float (sqrt (float_of_int dim)) + 1)

let train ~seed (d : Dataset.t) : Decision_tree.t =
  let dim =
    match d.Dataset.instances with
    | first :: _ -> Array.length first.Dataset.features
    | [] -> 1
  in
  let params =
    { Decision_tree.default_params with feature_subset = Some (subset_size dim) }
  in
  Decision_tree.train ~params ~seed d

let model m =
  {
    Classifier.name = "Random Tree";
    predict = Decision_tree.predict m;
    score = Decision_tree.score m;
  }

let algorithm : Classifier.algorithm =
  { algo_name = "Random Tree"; train = (fun ~seed d -> model (train ~seed d)) }
