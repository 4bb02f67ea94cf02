(** Plain-text table rendering for the experiment reports. *)

type align = L | R

type t = {
  title : string;
  header : string list;
  aligns : align list;
  rows : string list list;
}

let make ~title ~header ?aligns rows =
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.mapi (fun i _ -> if i = 0 then L else R) header
  in
  { title; header; aligns; rows }

let cell_width rows header col =
  List.fold_left
    (fun w row ->
      match List.nth_opt row col with
      | Some c -> max w (String.length c)
      | None -> w)
    (String.length (List.nth header col))
    rows

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else match align with L -> s ^ String.make n ' ' | R -> String.make n ' ' ^ s

let render (t : t) : string =
  let ncols = List.length t.header in
  let widths = List.init ncols (cell_width t.rows t.header) in
  let b = Buffer.create 1024 in
  let line ch =
    Buffer.add_string b
      (String.concat "-+-" (List.map (fun w -> String.make w ch) widths));
    Buffer.add_char b '\n'
  in
  let row cells =
    let padded =
      List.mapi
        (fun i c ->
          let w = List.nth widths i in
          let a = try List.nth t.aligns i with _ -> R in
          pad a w c)
        cells
    in
    Buffer.add_string b (String.concat " | " padded);
    Buffer.add_char b '\n'
  in
  Buffer.add_string b ("== " ^ t.title ^ " ==\n");
  row t.header;
  line '-';
  List.iter
    (fun r ->
      (* a row of all "---" cells renders as a separator *)
      if List.for_all (fun c -> c = "---") r then line '-' else row r)
    t.rows;
  Buffer.contents b

let pctf f = Printf.sprintf "%.1f%%" (100.0 *. f)
let intf n = string_of_int n
let blank_if_zero n = if n = 0 then "" else string_of_int n
