(* Output checks. Simulated results are compared with the kernels'
   golden OCaml references at the kernel tests' tolerance; the two
   simulator engines must agree bit for bit on everything they count. *)

module I = Masc_vm.Interp
module V = Masc_vm.Value

(* The tolerance of test/test_kernels.ml: vectorized reductions
   reassociate floating-point sums. *)
let tol = 1e-6

let scalars = function I.Xarray a -> a | I.Xscalar s -> [| s |]

(* [None] when [rets] match [expected], else what differs. *)
let against_golden ~expected (rets : I.xvalue list) =
  if List.length expected <> List.length rets then
    Some
      (Printf.sprintf "%d returns, golden has %d" (List.length rets)
         (List.length expected))
  else
    List.fold_left2
      (fun acc want got ->
        match acc with
        | Some _ -> acc
        | None ->
          let w = scalars want and g = scalars got in
          if Array.length w <> Array.length g then
            Some
              (Printf.sprintf "length %d, golden %d" (Array.length g)
                 (Array.length w))
          else
            let bad = ref None in
            Array.iteri
              (fun i x ->
                if !bad = None && not (V.close ~tol x g.(i)) then
                  bad :=
                    Some
                      (Format.asprintf "[%d] golden %a, simulated %a" i
                         V.pp_scalar x V.pp_scalar g.(i)))
              w;
            !bad)
      None expected rets

(* [None] when the plan and the tree-walker counted the same cycles,
   dynamic instructions and per-class histogram (order included). *)
let engines_agree ~(plan : I.result) ~(tree : I.result) =
  if plan.I.cycles <> tree.I.cycles then
    Some (Printf.sprintf "cycles plan %d tree %d" plan.I.cycles tree.I.cycles)
  else if plan.I.dyn_instrs <> tree.I.dyn_instrs then
    Some
      (Printf.sprintf "dyn_instrs plan %d tree %d" plan.I.dyn_instrs
         tree.I.dyn_instrs)
  else if plan.I.histogram <> tree.I.histogram then Some "histograms differ"
  else None
