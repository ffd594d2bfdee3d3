(* R5 — domain-safety escape analysis for the Parallel worker pool.

   [Crowdmax_util.Parallel.map] and [Parallel.map_chunks] run their
   function argument on every domain of the pool concurrently. A mutable value created *outside* that closure and
   captured by it is therefore shared mutable state across domains —
   the race the repo's determinism guarantee cannot survive. This pass
   finds each such application, resolves its function-typed argument
   (a literal [fun] or a let-bound function in the same module, chased
   through the module's binding map), computes the free variables of
   the closure body, and flags every captured binding whose type
   denotes mutable storage ([ref], [array], [Hashtbl.t], [Buffer.t],
   [Queue.t], records with mutable fields — the
   [Type_safety.mutable_verdict] lattice).

   Not flagged:
   - bindings created inside the closure (domain-local by construction);
   - [Atomic.t] captures — the sanctioned cross-domain primitive;
   - module-level bindings — those are R3's findings already;
   - immutable captures (ints, immutable records, functions).

   Boundary (DESIGN.md §6g): the analysis is depth-1 — it does not
   chase captures of captured functions, nor arguments smuggled through
   data structures. Deliberate disjoint-index sharing (each worker
   writing its own slot of a results array) is exactly what the
   allowlist with a reason is for. *)

open Typedtree

type ctx = {
  report : Finding.t -> unit;
  env_of : Env.t -> Env.t;
  modname : string;
}

let worker_entries = [ "Parallel.map"; "Parallel.map_chunks" ]

(* --- module-wide prepasses ---------------------------------------------- *)

(* Every value binding in the module, keyed by the bound ident, so a
   worker function passed by name resolves to its defining expression. *)
let binding_map str =
  let tbl = Hashtbl.create 64 in
  let value_binding sub vb =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace tbl (Ident.unique_name id) vb.vb_expr
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.structure it str;
  tbl

(* Module-level binders: captures of these are R3's domain (top-level
   mutable state), not a per-call-site escape. *)
let toplevel_idents str =
  let tbl = Hashtbl.create 64 in
  let add_vb vb =
    List.iter
      (fun id -> Hashtbl.replace tbl (Ident.unique_name id) ())
      (pat_bound_idents vb.vb_pat)
  in
  let rec add_struct s = List.iter add_item s.str_items
  and add_item item =
    match item.str_desc with
    | Tstr_value (_, vbs) -> List.iter add_vb vbs
    | Tstr_module mb -> add_mod mb.mb_expr
    | Tstr_recmodule mbs -> List.iter (fun mb -> add_mod mb.mb_expr) mbs
    | Tstr_include incl -> add_mod incl.incl_mod
    | _ -> ()
  and add_mod me =
    match me.mod_desc with
    | Tmod_structure s -> add_struct s
    | Tmod_constraint (me, _, _, _) -> add_mod me
    | _ -> ()
  in
  add_struct str;
  tbl

(* --- free variables of a closure ---------------------------------------- *)

(* Idents bound anywhere inside the subtree (function parameters, inner
   lets, match patterns, for-loop indices) versus idents used; the
   difference is what the closure captures from its environment. *)
let free_uses fn_expr =
  let bound = Hashtbl.create 32 in
  let uses = ref [] in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (pat_bound_idents p);
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> uses := (id, e) :: !uses
    | Texp_for (id, _, _, _, _, _) ->
        Hashtbl.replace bound (Ident.unique_name id) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it fn_expr;
  List.filter
    (fun (id, _) -> not (Hashtbl.mem bound (Ident.unique_name id)))
    (List.rev !uses)

(* --- the check ----------------------------------------------------------- *)

let is_arrow ctx e =
  let env = ctx.env_of e.exp_env in
  match Types.get_desc (Type_safety.expand env e.exp_type) with
  | Types.Tarrow _ -> true
  | _ -> false

let check_worker_fn ctx ~toplevel ~entry ~self arg_expr =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (id, use) ->
      let uname = Ident.unique_name id in
      let is_self =
        match self with Some s -> String.equal uname s | None -> false
      in
      if
        (not (Hashtbl.mem seen uname))
        && (not is_self)
        && not (Hashtbl.mem toplevel uname)
      then begin
        Hashtbl.replace seen uname ();
        let env = ctx.env_of use.exp_env in
        match Type_safety.mutable_verdict env use.exp_type with
        | None -> ()
        | Some why when String.equal why "an atomic cell" -> ()
        | Some why ->
            ctx.report
              (Finding.make ~loc:use.exp_loc ~rule:"R5"
                 ~message:
                   (Printf.sprintf
                      "mutable '%s' (%s) is captured by the worker closure \
                       passed to %s and shared across pool domains; make it \
                       domain-local or an Atomic"
                      (Ident.name id) why entry))
      end)
    (free_uses arg_expr)

let check_apply ctx ~bindings ~toplevel head args =
  match head.exp_desc with
  | Texp_ident (p, _, _) ->
      let env = ctx.env_of head.exp_env in
      let entry = Alloc_free.key_of_path ~modname:ctx.modname env p in
      if List.exists (String.equal entry) worker_entries then
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some a when is_arrow ctx a -> (
                match a.exp_desc with
                | Texp_function _ ->
                    check_worker_fn ctx ~toplevel ~entry ~self:None a
                | Texp_ident (Path.Pident id, _, _) -> (
                    let uname = Ident.unique_name id in
                    match Hashtbl.find_opt bindings uname with
                    | Some def ->
                        check_worker_fn ctx ~toplevel ~entry
                          ~self:(Some uname) def
                    | None -> ())
                | _ -> ())
            | _ -> ())
          args
  | _ -> ()

let run ctx str =
  let bindings = binding_map str in
  let toplevel = toplevel_idents str in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply (head, args) -> check_apply ctx ~bindings ~toplevel head args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str
