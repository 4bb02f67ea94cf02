(** Abstract syntax tree for the PHP subset.

    The shape mirrors what WAP's detectors need: expressions carry
    locations so a candidate vulnerability can be traced back to its
    source line, and string interpolation is represented explicitly (an
    [Interp] node) because tainted variables flowing through interpolated
    SQL strings are the single most common vulnerable pattern. *)

type ident = string [@@deriving show, eq]

type binop =
  | Concat
  | Plus | Minus | Mul | Div | Mod | Pow
  | Eq_eq | Neq | Identical | Not_identical
  | Lt | Gt | Le | Ge | Spaceship
  | Bool_and | Bool_or | Bool_xor
  | Bit_and | Bit_or | Bit_xor | Shl | Shr
  | Coalesce
  | Instanceof
[@@deriving show, eq]

type unop = Neg | Uplus | Not | Bit_not | Silence [@@deriving show, eq]

type incdec = Pre_inc | Pre_dec | Post_inc | Post_dec [@@deriving show, eq]

type assign_op =
  | A_eq | A_concat | A_plus | A_minus | A_mul | A_div | A_mod | A_pow
  | A_bit_and | A_bit_or | A_bit_xor | A_shl | A_shr | A_coalesce
[@@deriving show, eq]

type cast = C_int | C_float | C_string | C_bool | C_array | C_object
[@@deriving show, eq]

type include_kind = Inc | Inc_once | Req | Req_once [@@deriving show, eq]

type visibility = Public | Private | Protected [@@deriving show, eq]

type expr = { e : expr_kind; eloc : Loc.t }

and expr_kind =
  | Int of int
  | Float of float
  | String of string  (** literal, escapes resolved *)
  | Interp of interp_part list  (** double-quoted string with interpolation *)
  | Var of ident  (** [$x] *)
  | Var_var of expr  (** [$$x] *)
  | Constant of ident  (** bareword constant; [true]/[false]/[null] included *)
  | Array_lit of array_item list
  | Index of expr * expr option  (** [$a[e]]; [None] is the push form [$a[]] *)
  | Prop of expr * member  (** [$o->p] *)
  | Static_prop of ident * ident  (** [C::$p] *)
  | Class_const of ident * ident  (** [C::K] *)
  | Call of callee * arg list
  | New of ident * arg list
  | Clone of expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Incdec of incdec * expr
  | Assign of assign_op * expr * expr
  | Assign_ref of expr * expr  (** [$a =& $b] *)
  | Ternary of expr * expr option * expr  (** [c ? a : b]; [None] is [c ?: b] *)
  | Cast of cast * expr
  | Isset of expr list
  | Empty of expr
  | Exit of expr option
  | Print of expr
  | Include of include_kind * expr
  | List of expr option list  (** [list($a, , $b)] destructuring target *)
  | Closure of closure
  | Backtick of interp_part list
      (** [`cmd`] shell execution; interpolates like a double-quoted string *)

and interp_part = Ip_str of string | Ip_expr of expr

and array_item = { ai_key : expr option; ai_value : expr; ai_by_ref : bool }

and member = Mem_ident of ident | Mem_expr of expr

and callee =
  | F_ident of ident  (** [foo(...)] *)
  | F_var of expr  (** [$f(...)] dynamic call *)
  | F_method of expr * member  (** [$o->m(...)] *)
  | F_static of ident * ident  (** [C::m(...)] *)

and arg = { a_expr : expr; a_spread : bool }

and closure = {
  cl_params : param list;
  cl_uses : (bool * ident) list;  (** [(by_ref, name)] in [use (...)] *)
  cl_body : stmt list;
  cl_static : bool;
}

and param = {
  p_name : ident;
  p_default : expr option;
  p_by_ref : bool;
  p_hint : ident option;
  p_variadic : bool;
}

and stmt = { s : stmt_kind; sloc : Loc.t }

and stmt_kind =
  | Expr_stmt of expr
  | Echo of expr list
  | If of (expr * stmt list) list * stmt list option
      (** if / elseif chain, optional else *)
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of expr list * expr list * expr list * stmt list
  | Foreach of expr * foreach_binding * stmt list
  | Switch of expr * case list
  | Break of int option
  | Continue of int option
  | Return of expr option
  | Global of ident list
  | Static_vars of (ident * expr option) list
  | Unset of expr list
  | Throw of expr
  | Try of stmt list * catch list * stmt list option
  | Func_def of func
  | Class_def of cls
  | Block of stmt list
  | Inline_html of string
  | Const_def of (ident * expr) list
  | Nop

and foreach_binding = {
  fe_key : expr option;
  fe_by_ref : bool;
  fe_value : expr;
}

and case = Case of expr * stmt list | Default of stmt list

and catch = { c_types : ident list; c_var : ident option; c_body : stmt list }

and func = {
  f_name : ident;
  f_params : param list;
  f_body : stmt list;
  f_by_ref : bool;
  f_loc : Loc.t;
}

and cls = {
  k_name : ident;
  k_parent : ident option;
  k_implements : ident list;
  k_abstract : bool;
  k_final : bool;
  k_interface : bool;
  k_consts : (ident * expr) list;
  k_props : prop list;
  k_methods : meth list;
  k_loc : Loc.t;
}

and prop = {
  pr_name : ident;
  pr_static : bool;
  pr_visibility : visibility;
  pr_default : expr option;
}

and meth = {
  m_visibility : visibility;
  m_static : bool;
  m_abstract : bool;
  m_final : bool;
  m_func : func;
}
[@@deriving show, eq]

type program = stmt list [@@deriving show, eq]

(* ------------------------------------------------------------------ *)
(* Constructors and small helpers.                                     *)

let mk_e ?(loc = Loc.dummy) e = { e; eloc = loc }
let mk_s ?(loc = Loc.dummy) s = { s; sloc = loc }

(** [var "x"] builds the expression [$x]. *)
let var ?(loc = Loc.dummy) name = mk_e ~loc (Var name)

(** [call "f" args] builds the expression [f(args)]. *)
let call ?(loc = Loc.dummy) name args =
  mk_e ~loc (Call (F_ident name, List.map (fun a -> { a_expr = a; a_spread = false }) args))

let str ?(loc = Loc.dummy) s = mk_e ~loc (String s)
let int_ ?(loc = Loc.dummy) n = mk_e ~loc (Int n)

(** Name of the called function, when the callee is a plain identifier.
    PHP function names are case-insensitive, so the result is lowercased. *)
let callee_name = function
  | F_ident f -> Some (String.lowercase_ascii f)
  | F_var _ -> None
  | F_method (_, Mem_ident m) -> Some (String.lowercase_ascii m)
  | F_method (_, Mem_expr _) -> None
  | F_static (c, m) ->
      Some (String.lowercase_ascii c ^ "::" ^ String.lowercase_ascii m)

(** Is this expression a superglobal access such as [$_GET['x']]? *)
let superglobals =
  [ "_GET"; "_POST"; "_COOKIE"; "_REQUEST"; "_SERVER"; "_FILES"; "_ENV"; "_SESSION"; "GLOBALS" ]

let is_superglobal name = List.mem name superglobals

let rec base_variable expr =
  (* The variable at the root of an lvalue chain: $a[0]->x ~> "a". *)
  match expr.e with
  | Var v -> Some v
  | Index (e, _) | Prop (e, _) -> base_variable e
  | _ -> None
