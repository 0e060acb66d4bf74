(* Differential suite for the deterministic executor: every combinator
   must produce bit-identical results at domain counts {1, 2, 4}, PRNG
   streams included; exceptions must propagate deterministically; and a
   real campaign table must render to the same string both ways. *)

open Resa_core

let domain_counts = [ 1; 2; 4 ]

let test_parallel_map_matches_sequential () =
  let input = Array.init 53 (fun i -> i - 7) in
  let f x = (x * x) + (3 * x) - 1 in
  let expect = Array.map f input in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "map equal at domains=%d" d)
        expect
        (Resa_par.parallel_map ~domains:d f input))
    domain_counts

let test_parallel_map_list () =
  let input = List.init 17 string_of_int in
  List.iter
    (fun d ->
      Alcotest.(check (list string))
        (Printf.sprintf "map_list keeps order at domains=%d" d)
        (List.map (fun s -> s ^ "!") input)
        (Resa_par.parallel_map_list ~domains:d (fun s -> s ^ "!") input))
    domain_counts

let test_empty_inputs () =
  List.iter
    (fun d ->
      Alcotest.(check (array int)) "empty map" [||] (Resa_par.parallel_map ~domains:d (fun x -> x) [||]);
      Alcotest.(check int) "empty replicates" 0
        (Array.length
           (Resa_par.parallel_replicates ~domains:d (Prng.create ~seed:1) ~n:0 (fun _ i -> i)));
      Alcotest.(check int) "empty reduce" 42
        (Resa_par.parallel_for_reduce ~domains:d ~lo:3 ~hi:3 ~init:42 ~f:(fun i -> i)
           ~combine:( + ) ()))
    domain_counts

let test_reduce_fixed_order () =
  (* String concatenation is non-commutative: any reduction-order drift
     across domain counts changes the bytes. *)
  let expect =
    List.fold_left (fun acc i -> acc ^ string_of_int i ^ ";") "" (List.init 25 (fun i -> i))
  in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "reduction order fixed at domains=%d" d)
        expect
        (Resa_par.parallel_for_reduce ~domains:d ~lo:0 ~hi:25 ~init:""
           ~f:(fun i -> string_of_int i ^ ";")
           ~combine:( ^ ) ()))
    domain_counts

let test_replicates_prng_stream_equality () =
  let n = 16 in
  let draws rng = (Prng.int rng ~bound:1_000_000, Prng.int rng ~bound:1_000_000) in
  (* Sequential reference: split the generators in ascending order, then
     run the replicates one by one. *)
  let expect =
    let rng = Prng.create ~seed:99 in
    let rngs = Array.make n rng in
    for i = 0 to n - 1 do
      rngs.(i) <- Prng.split rng
    done;
    Array.to_list (Array.mapi (fun i r -> (i, draws r)) rngs)
  in
  List.iter
    (fun d ->
      let got =
        Resa_par.parallel_replicates ~domains:d (Prng.create ~seed:99) ~n (fun r i ->
            (i, draws r))
      in
      Alcotest.(check (list (pair int (pair int int))))
        (Printf.sprintf "replicate streams at domains=%d" d)
        expect (Array.to_list got))
    domain_counts;
  (* The outer generator must be advanced identically too. *)
  let advance d =
    let rng = Prng.create ~seed:7 in
    ignore (Resa_par.parallel_replicates ~domains:d rng ~n:5 (fun _ i -> i));
    Prng.int rng ~bound:1_000_000
  in
  let reference = advance 1 in
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "outer generator state at domains=%d" d)
        reference (advance d))
    domain_counts

let test_replicate_streams_disjoint () =
  let outs =
    Resa_par.parallel_replicates ~domains:2 (Prng.create ~seed:5) ~n:12 (fun r _ ->
        Prng.int r ~bound:1_000_000_000)
  in
  let sorted = List.sort_uniq compare (Array.to_list outs) in
  Alcotest.(check int) "replicates draw from disjoint streams" 12 (List.length sorted)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun d ->
      (* Two failing tasks: the lowest index wins deterministically. *)
      let raised =
        try
          ignore
            (Resa_par.parallel_map ~domains:d
               (fun i -> if i = 5 || i = 11 then raise (Boom i) else i)
               (Array.init 16 (fun i -> i)));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "lowest-index exception at domains=%d" d)
        (Some 5) raised;
      (* The pool must survive a failed batch. *)
      Alcotest.(check (array int))
        "pool usable after exception"
        [| 0; 2; 4 |]
        (Resa_par.parallel_map ~domains:d (fun i -> 2 * i) (Array.init 3 (fun i -> i))))
    [ 2; 4 ]

let test_nested_sections_fall_back () =
  (* A parallel call from inside a worker task must degrade to the inline
     sequential path, with identical results and no deadlock. *)
  let expect = Array.init 6 (fun i -> 15 + (100 * i)) in
  let got =
    Resa_par.parallel_map ~domains:4
      (fun i ->
        Resa_par.parallel_for_reduce ~domains:4 ~lo:0 ~hi:6 ~init:(100 * i) ~f:(fun j -> j)
          ~combine:( + ) ())
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check (array int)) "nested sections" expect got

let test_worst_order_domain_invariant () =
  let inst =
    Resa_gen.Random_inst.alpha_restricted (Prng.create ~seed:31) ~m:12 ~n:9 ~alpha:0.5 ~pmax:6 ()
  in
  let run d =
    Resa_par.with_domains d (fun () ->
        let rng = Prng.create ~seed:17 in
        Resa_analysis.Anomaly.worst_order ~restarts:4 ~iterations:30 rng inst)
  in
  let order1, worst1 = run 1 in
  List.iter
    (fun d ->
      let order, worst = run d in
      Alcotest.(check int) (Printf.sprintf "worst makespan at domains=%d" d) worst1 worst;
      Alcotest.(check (array int)) (Printf.sprintf "worst order at domains=%d" d) order1 order)
    [ 2; 4 ]

let test_campaign_table_domain_invariant () =
  (* A real experiment table of the benchmark harness, rendered end to
     end at 1 and 4 domains: the strings must match byte for byte. *)
  let render d =
    Resa_par.with_domains d (fun () -> Resa_stats.Table.render (Resa_bench.Experiments.fig3_table ()))
  in
  let s1 = render 1 in
  Alcotest.(check bool) "table non-trivial" true (String.length s1 > 100);
  Alcotest.(check string) "fig3 table byte-identical across domain counts" s1 (render 4)

(* The pool size is checked, not clamped: a caller asking for no domains
   gets an error instead of a silent single-domain run. *)
let test_set_domains_rejects_nonpositive () =
  let before = Resa_par.domain_count () in
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "set_domains %d" n)
        (Invalid_argument "Resa_par.set_domains: need at least 1 domain") (fun () ->
          Resa_par.set_domains n))
    [ 0; -1 ];
  Alcotest.(check int) "pool size unchanged" before (Resa_par.domain_count ())

let suite =
  [
    Alcotest.test_case "set_domains rejects counts below 1" `Quick
      test_set_domains_rejects_nonpositive;
    Alcotest.test_case "parallel_map matches sequential" `Quick test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel_map_list keeps order" `Quick test_parallel_map_list;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
    Alcotest.test_case "reduction order is fixed" `Quick test_reduce_fixed_order;
    Alcotest.test_case "replicate PRNG streams are domain-invariant" `Quick
      test_replicates_prng_stream_equality;
    Alcotest.test_case "replicate streams are disjoint" `Quick test_replicate_streams_disjoint;
    Alcotest.test_case "exceptions re-raise at the join point" `Quick test_exception_propagation;
    Alcotest.test_case "nested sections fall back inline" `Quick test_nested_sections_fall_back;
    Alcotest.test_case "worst_order invariant across domains" `Quick
      test_worst_order_domain_invariant;
    Alcotest.test_case "campaign table invariant across domains" `Quick
      test_campaign_table_domain_invariant;
  ]
