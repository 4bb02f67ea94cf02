(** Logistic regression with L2 regularization, trained by batch
    gradient descent.

    One of the original WAP's top-3 classifiers, kept in the new top 3
    (Table II). *)

type params = {
  learning_rate : float;
  iterations : int;
  l2 : float;
}

let default_params = { learning_rate = 0.5; iterations = 400; l2 = 0.001 }

type t = { weights : float array; bias : float }

(* The gradient accumulates over each instance's nonzero features
   only ({!Classifier.sparse}: exact); the weight update stays dense. *)
let train ?(params = default_params) (d : Dataset.t) : t =
  match d.Dataset.instances with
  | [] -> { weights = [||]; bias = 0.0 }
  | first :: _ ->
      let dim = Array.length first.Dataset.features in
      let instances = Array.of_list d.Dataset.instances in
      let xs =
        Array.map (fun (i : Dataset.instance) -> Classifier.sparse i.features) instances
      and ys =
        Array.map (fun (i : Dataset.instance) -> if i.label then 1.0 else 0.0) instances
      in
      let nf = float_of_int (Array.length instances) in
      let w = Array.make dim 0.0 in
      let b = ref 0.0 in
      let grad_w = Array.make dim 0.0 in
      for _ = 1 to params.iterations do
        Array.fill grad_w 0 dim 0.0;
        let grad_b = ref 0.0 in
        for k = 0 to Array.length xs - 1 do
          let x = xs.(k) in
          let p = Classifier.sigmoid (Classifier.sparse_dot w x +. !b) in
          let err = p -. ys.(k) in
          for j = 0 to Array.length x.idx - 1 do
            let i = x.idx.(j) in
            grad_w.(i) <- grad_w.(i) +. (err *. x.vals.(j))
          done;
          grad_b := !grad_b +. err
        done;
        for i = 0 to dim - 1 do
          w.(i) <-
            w.(i) -. (params.learning_rate *. ((grad_w.(i) /. nf) +. (params.l2 *. w.(i))))
        done;
        b := !b -. (params.learning_rate *. (!grad_b /. nf))
      done;
      { weights = w; bias = !b }

let score (m : t) x = Classifier.sigmoid (Classifier.dot m.weights x +. m.bias)
let predict (m : t) x = score m x >= 0.5

let model m =
  { Classifier.name = "Logistic Regression"; predict = predict m; score = score m }

let algorithm : Classifier.algorithm =
  { algo_name = "Logistic Regression"; train = (fun ~seed:_ d -> model (train d)) }
