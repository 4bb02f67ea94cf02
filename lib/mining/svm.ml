(** Linear support vector machine trained with the Pegasos stochastic
    sub-gradient algorithm (Shalev-Shwartz et al.).

    The paper's best classifier for goal (1): catching as many false
    positives as possible (highest tpp in Table II). *)

type params = {
  lambda : float;  (** regularization strength *)
  epochs : int;
}

let default_params = { lambda = 0.005; epochs = 120 }

type t = { weights : float array; bias : float }

(* The margin and the sub-gradient step visit each instance's nonzero
   features only ({!Classifier.sparse}: exact); the shrink stays dense,
   since scaling lazily would round differently. *)
let train ?(params = default_params) ~seed (d : Dataset.t) : t =
  match d.Dataset.instances with
  | [] -> { weights = [||]; bias = 0.0 }
  | first :: _ ->
      let dim = Array.length first.Dataset.features in
      let instances = Array.of_list d.Dataset.instances in
      let xs =
        Array.map (fun (i : Dataset.instance) -> Classifier.sparse i.features) instances
      and ys =
        Array.map (fun (i : Dataset.instance) -> if i.label then 1.0 else -1.0) instances
      in
      let n = Array.length instances in
      let rng = Random.State.make [| seed; 7919 |] in
      let w = Array.make dim 0.0 in
      let b = ref 0.0 in
      let t = ref 1 in
      for _epoch = 1 to params.epochs do
        for _step = 1 to n do
          let k = Random.State.int rng n in
          let x = xs.(k) and y = ys.(k) in
          let eta = 1.0 /. (params.lambda *. float_of_int !t) in
          let margin = y *. (Classifier.sparse_dot w x +. !b) in
          (* shrink *)
          let shrink = 1.0 -. (eta *. params.lambda) in
          for i = 0 to dim - 1 do
            w.(i) <- w.(i) *. shrink
          done;
          if margin < 1.0 then begin
            let step = eta *. y in
            for j = 0 to Array.length x.idx - 1 do
              let i = x.idx.(j) in
              w.(i) <- w.(i) +. (step *. x.vals.(j))
            done;
            b := !b +. (eta *. y *. 0.1)
          end;
          incr t
        done
      done;
      { weights = w; bias = !b }

let margin (m : t) x = Classifier.dot m.weights x +. m.bias
let predict (m : t) x = margin m x >= 0.0
let score (m : t) x = Classifier.sigmoid (2.0 *. margin m x)

let model m = { Classifier.name = "SVM"; predict = predict m; score = score m }

let algorithm : Classifier.algorithm =
  { algo_name = "SVM"; train = (fun ~seed d -> model (train ~seed d)) }
