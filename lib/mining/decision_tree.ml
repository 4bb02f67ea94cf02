(** CART-style decision trees over binary attributes.

    Shared by {!Random_tree} (a single tree choosing among a random
    attribute subset at each split, as in WEKA's RandomTree — one of the
    original WAP's classifiers) and {!Random_forest} (bagged trees, one
    of the new top 3). *)

type node =
  | Leaf of float  (** probability of the FP class *)
  | Split of int * node * node  (** attribute index; zero branch, one branch *)

type t = { root : node }

type params = {
  max_depth : int;
  min_samples : int;
  feature_subset : int option;
      (** when set, each split considers only this many randomly chosen
          attributes — [None] examines all (plain CART) *)
}

let default_params = { max_depth = 12; min_samples = 2; feature_subset = None }

(* Training works on instance ids into a prepared set: [cols.(j)] holds
   one byte per instance, '\001' when [features.(j) <= 0.5] fails — the
   one branch of [score], NaN included — and ['\000'] otherwise.  A node
   is a slice of one id array, partitioned in place at each split, and
   its Gini impurity and leaf fraction come from counts with the same
   float expressions a list of its instances would give. *)
type data = {
  cols : Bytes.t array;
  labels : Bytes.t;  (** '\001' for a false positive *)
}

let prepare (d : Dataset.t) : data =
  let instances = Array.of_list d.Dataset.instances in
  let n = Array.length instances in
  let dim = if n = 0 then 0 else Array.length instances.(0).Dataset.features in
  {
    cols =
      Array.init dim (fun j ->
          Bytes.init n (fun i ->
              if instances.(i).Dataset.features.(j) <= 0.5 then '\000' else '\001'));
    labels = Bytes.init n (fun i -> if instances.(i).Dataset.label then '\001' else '\000');
  }

let gini ~pos n =
  if n = 0 then 0.0
  else
    let p = float_of_int pos /. float_of_int n in
    2.0 *. p *. (1.0 -. p)

let fp_fraction ~pos n = if n = 0 then 0.5 else float_of_int pos /. float_of_int n

(* the size of the one branch of [ids.(lo..hi-1)] and its positives,
   counted without a branch per instance *)
let count_ones data col ids lo hi =
  let ones = ref 0 and pos = ref 0 in
  for k = lo to hi - 1 do
    let id = ids.(k) in
    let one = Char.code (Bytes.get col id) in
    ones := !ones + one;
    pos := !pos + (one land Char.code (Bytes.get data.labels id))
  done;
  (!ones, !pos)

(* move the zero branch of [ids.(lo..hi-1)] to its front *)
let partition col ids lo hi =
  let i = ref lo and j = ref (hi - 1) in
  while !i <= !j do
    let id = ids.(!i) in
    if Bytes.get col id = '\000' then incr i
    else begin
      ids.(!i) <- ids.(!j);
      ids.(!j) <- id;
      decr j
    end
  done

let candidate_features ~params ~rng dim =
  match params.feature_subset with
  | None -> List.init dim Fun.id
  | Some k ->
      let k = min k dim in
      (* sample k distinct indices *)
      let chosen = Hashtbl.create k in
      let rec draw n =
        if n = 0 then ()
        else
          let i = Random.State.int rng dim in
          if Hashtbl.mem chosen i then draw n
          else begin
            Hashtbl.add chosen i ();
            draw (n - 1)
          end
      in
      draw k;
      Hashtbl.fold (fun i () acc -> i :: acc) chosen []

(* the node of [ids.(lo..hi-1)], [pos] of them false positives *)
let rec build ~params ~rng data ids lo hi ~pos depth : node =
  let n = hi - lo in
  let impurity = gini ~pos n in
  if depth >= params.max_depth || n < params.min_samples || impurity = 0.0 then
    Leaf (fp_fraction ~pos n)
  else begin
    let best = ref None in
    List.iter
      (fun idx ->
        let ones, one_pos = count_ones data data.cols.(idx) ids lo hi in
        let zeros = n - ones and zero_pos = pos - one_pos in
        if zeros > 0 && ones > 0 then begin
          let nz = float_of_int zeros and no = float_of_int ones in
          let weighted =
            ((nz *. gini ~pos:zero_pos zeros) +. (no *. gini ~pos:one_pos ones))
            /. float_of_int n
          in
          let gain = impurity -. weighted in
          match !best with
          | Some (g, _, _, _) when g >= gain -> ()
          | _ -> best := Some (gain, idx, zeros, zero_pos)
        end)
      (candidate_features ~params ~rng (Array.length data.cols));
    match !best with
    | None -> Leaf (fp_fraction ~pos n)
    | Some (_, idx, zeros, zero_pos) ->
        (* zero-gain splits are allowed (XOR-style interactions only
           pay off one level deeper); max_depth bounds the tree *)
        partition data.cols.(idx) ids lo hi;
        let mid = lo + zeros in
        (* the one branch first: the trees are defined by drawing its
           candidate features from [rng] before the zero branch's *)
        let one = build ~params ~rng data ids mid hi ~pos:(pos - zero_pos) (depth + 1) in
        let zero = build ~params ~rng data ids lo mid ~pos:zero_pos (depth + 1) in
        Split (idx, zero, one)
  end

let grow ?(params = default_params) ~seed data ids : t =
  let rng = Random.State.make [| seed; 104729 |] in
  let pos =
    Array.fold_left (fun acc id -> acc + Char.code (Bytes.get data.labels id)) 0 ids
  in
  { root = build ~params ~rng data ids 0 (Array.length ids) ~pos 0 }

let train ?params ~seed (d : Dataset.t) : t =
  grow ?params ~seed (prepare d) (Array.init (Dataset.size d) Fun.id)

let rec score_node node x =
  match node with
  | Leaf p -> p
  | Split (idx, zero, one) ->
      if x.(idx) <= 0.5 then score_node zero x else score_node one x

let score (m : t) x = score_node m.root x
let predict (m : t) x = score m x >= 0.5

let algorithm : Classifier.algorithm =
  {
    algo_name = "Decision Tree";
    train =
      (fun ~seed d ->
        let m = train ~seed d in
        { Classifier.name = "Decision Tree"; predict = predict m; score = score m });
  }

(** Depth and node count, used by tests. *)
let rec depth_of = function
  | Leaf _ -> 0
  | Split (_, a, b) -> 1 + max (depth_of a) (depth_of b)

let rec nodes_of = function Leaf _ -> 1 | Split (_, a, b) -> 1 + nodes_of a + nodes_of b
