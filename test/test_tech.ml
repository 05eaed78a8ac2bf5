(* Tests of the technology substrate: process parameters, wire
   extraction, driver models, and the Section V PLA generator. *)

let check_close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let p = Tech.Process.default_4um

let process_tests =
  [
    Alcotest.test_case "default process values" `Quick (fun () ->
        check_close "poly" 30. p.Tech.Process.poly_sheet_resistance;
        check_close ~eps:1e-12 "gate ox" 4e-8 p.Tech.Process.gate_oxide_thickness;
        check_close ~eps:1e-12 "field ox" 3e-7 p.Tech.Process.field_oxide_thickness;
        check_close ~eps:1e-9 "feature" 4e-6 p.Tech.Process.feature_size);
    Alcotest.test_case "gate capacitance per area" `Quick (fun () ->
        (* 3.8 * eps0 / 400A ~ 8.41e-4 F/m^2 *)
        check_close ~eps:1e-6 "cpa" 8.411e-4 (Tech.Process.gate_capacitance_per_area p));
    Alcotest.test_case "field capacitance per area" `Quick (fun () ->
        check_close ~eps:1e-7 "cpa" 1.1215e-4 (Tech.Process.field_capacitance_per_area p));
    Alcotest.test_case "gate oxide denser than field oxide" `Quick (fun () ->
        check_bool "ratio" true
          (Tech.Process.gate_capacitance_per_area p
          > 5. *. Tech.Process.field_capacitance_per_area p));
    Alcotest.test_case "scaling shrinks features, raises sheet rho" `Quick (fun () ->
        let h = Tech.Process.scale p ~factor:0.5 in
        check_close ~eps:1e-9 "feature" 2e-6 h.Tech.Process.feature_size;
        check_close "poly" 60. h.Tech.Process.poly_sheet_resistance;
        check_close ~eps:1e-12 "gate ox" 2e-8 h.Tech.Process.gate_oxide_thickness);
    Alcotest.test_case "scaling preserves wire RC per square geometry" `Quick (fun () ->
        (* halving everything: R per square doubles, C per area doubles,
           area quarters -> segment RC is invariant *)
        let h = Tech.Process.scale p ~factor:0.5 in
        let seg proc f =
          Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(24. *. f) ~width:(4. *. f)
          |> fun s -> Tech.Wire.resistance proc s *. Tech.Wire.capacitance proc s
        in
        check_close ~eps:1e-18 "rc invariant" (seg p 1e-6) (seg h 0.5e-6));
    Alcotest.test_case "bad scale factor raises" `Quick (fun () ->
        check_invalid "factor" (fun () -> Tech.Process.scale p ~factor:0.));
  ]

let wire_tests =
  [
    Alcotest.test_case "paper wire segment values" `Quick (fun () ->
        let s = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:24e-6 ~width:4e-6 in
        check_close "squares" 6. (Tech.Wire.squares s);
        check_close "r" 180. (Tech.Wire.resistance p s);
        check_close ~eps:2e-16 "c" 1.077e-14 (Tech.Wire.capacitance p s));
    Alcotest.test_case "metal becomes a pure capacitor" `Quick (fun () ->
        let s = Tech.Wire.segment ~layer:Tech.Wire.Metal ~length:100e-6 ~width:8e-6 in
        match Tech.Wire.to_element p s with
        | Rctree.Element.Capacitor c -> check_bool "positive" true (c > 0.)
        | _ -> Alcotest.fail "expected a capacitor");
    Alcotest.test_case "metal resistance kept when asked" `Quick (fun () ->
        let s = Tech.Wire.segment ~layer:Tech.Wire.Metal ~length:100e-6 ~width:8e-6 in
        match Tech.Wire.to_element ~neglect_metal_resistance:false p s with
        | Rctree.Element.Line { resistance; _ } -> check_bool "has r" true (resistance > 0.)
        | _ -> Alcotest.fail "expected a line");
    Alcotest.test_case "poly becomes a distributed line" `Quick (fun () ->
        let s = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:24e-6 ~width:4e-6 in
        check_bool "line" true (Rctree.Element.is_distributed (Tech.Wire.to_element p s)));
    Alcotest.test_case "diffusion has its own sheet resistance" `Quick (fun () ->
        check_close "rho" 10. (Tech.Wire.sheet_resistance p Tech.Wire.Diffusion));
    Alcotest.test_case "geometry validation" `Quick (fun () ->
        check_invalid "width" (fun () -> Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:1. ~width:0.);
        check_invalid "length" (fun () ->
            Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(-1.) ~width:1.));
  ]

let mosfet_tests =
  [
    Alcotest.test_case "paper superbuffer" `Quick (fun () ->
        check_close "r" 378. Tech.Mosfet.paper_superbuffer.Tech.Mosfet.on_resistance;
        check_close ~eps:1e-18 "c" 4e-14 Tech.Mosfet.paper_superbuffer.Tech.Mosfet.output_capacitance);
    Alcotest.test_case "minimum gate load is the paper's 0.0134 pF" `Quick (fun () ->
        check_close ~eps:2e-16 "c" 1.346e-14 (Tech.Mosfet.minimum_gate_load p));
    Alcotest.test_case "gate load scales with area" `Quick (fun () ->
        check_close ~eps:1e-18 "4x"
          (4. *. Tech.Mosfet.minimum_gate_load p)
          (Tech.Mosfet.gate_load p ~width:8e-6 ~length:8e-6));
    Alcotest.test_case "driver validation" `Quick (fun () ->
        check_invalid "r" (fun () ->
            Tech.Mosfet.driver ~on_resistance:0. ~output_capacitance:1e-12 ());
        check_invalid "c" (fun () ->
            Tech.Mosfet.driver ~on_resistance:100. ~output_capacitance:(-1.) ()));
    Alcotest.test_case "scaled inverter strength" `Quick (fun () ->
        let weak = Tech.Mosfet.scaled_inverter p ~pullup_squares:8. in
        let strong = Tech.Mosfet.scaled_inverter p ~pullup_squares:2. in
        check_bool "weaker is slower" true
          (weak.Tech.Mosfet.on_resistance > strong.Tech.Mosfet.on_resistance);
        check_close "8sq" 80000. weak.Tech.Mosfet.on_resistance);
    Alcotest.test_case "gate_load validation" `Quick (fun () ->
        check_invalid "w" (fun () -> Tech.Mosfet.gate_load p ~width:0. ~length:1e-6));
    Alcotest.test_case "input_elements" `Quick (fun () ->
        let r, c = Tech.Mosfet.input_elements p Tech.Mosfet.paper_superbuffer in
        check_close "r" 378. (Rctree.Element.resistance r);
        check_close ~eps:1e-18 "c" 4e-14 c);
  ]

let pla_tests =
  let params = Tech.Pla.default_params p in
  [
    Alcotest.test_case "default params follow the feature size" `Quick (fun () ->
        check_close ~eps:1e-12 "gate" 4e-6 params.Tech.Pla.gate_width;
        check_close ~eps:1e-12 "segment" 24e-6 params.Tech.Pla.segment_length;
        check_int "2 minterms" 2 params.Tech.Pla.minterms_per_section);
    Alcotest.test_case "section matches listing values" `Quick (fun () ->
        let ts = Rctree.Expr.times (Tech.Pla.section p params) in
        (* (URC 180 0.0107pF) WC (URC 30 0.0134pF): T_P by hand *)
        let listing =
          Rctree.Expr.times
            Rctree.Expr.(urc 180. 1.07667e-14 @> urc 30. 1.34584e-14)
        in
        check_bool "within 0.1%" true
          (Float.abs (ts.Rctree.Times.t_p -. listing.Rctree.Times.t_p)
           /. listing.Rctree.Times.t_p < 1e-3));
    Alcotest.test_case "line_expr grows by one section per two minterms" `Quick (fun () ->
        let n k = Rctree.Expr.size (Tech.Pla.line_expr p params ~minterms:k) in
        check_int "0" 2 (n 0);
        check_int "2" 4 (n 2);
        check_int "20" 22 (n 20));
    Alcotest.test_case "line_tree single output" `Quick (fun () ->
        let tree = Tech.Pla.line_tree p params ~minterms:10 in
        check_int "outputs" 1 (List.length (Rctree.Tree.outputs tree)));
    Alcotest.test_case "negative minterms raises" `Quick (fun () ->
        check_invalid "n" (fun () -> Tech.Pla.line_expr p params ~minterms:(-2)));
    Alcotest.test_case "delay bounds ordering and growth" `Quick (fun () ->
        let lo10, hi10 = Tech.Pla.delay_bounds p params ~minterms:10 in
        let lo40, hi40 = Tech.Pla.delay_bounds p params ~minterms:40 in
        check_bool "lo<=hi" true (lo10 <= hi10);
        check_bool "grows" true (lo40 > lo10 && hi40 > hi10));
    Alcotest.test_case "threshold matters" `Quick (fun () ->
        let _, hi_05 = Tech.Pla.delay_bounds ~threshold:0.5 p params ~minterms:20 in
        let _, hi_09 = Tech.Pla.delay_bounds ~threshold:0.9 p params ~minterms:20 in
        check_bool "higher threshold later" true (hi_09 > hi_05));
    Alcotest.test_case "sweep shape" `Quick (fun () ->
        let s = Tech.Pla.sweep p params ~minterms:[ 2; 4; 10 ] in
        check_int "rows" 3 (List.length s);
        match s with
        | (n, lo, hi) :: _ ->
            check_int "first" 2 n;
            check_bool "ordered" true (lo <= hi)
        | [] -> Alcotest.fail "empty sweep");
    Alcotest.test_case "paper_line is the literal listing" `Quick (fun () ->
        check_bool "same" true (Tech.Pla.paper_line ~minterms:6 = Rctree.Expr.pla_line 6));
    Alcotest.test_case "custom driver is honoured" `Quick (fun () ->
        let strong = Tech.Mosfet.driver ~on_resistance:50. ~output_capacitance:1e-14 () in
        let _, hi_strong = Tech.Pla.delay_bounds ~driver:strong p params ~minterms:20 in
        let _, hi_weak = Tech.Pla.delay_bounds p params ~minterms:20 in
        check_bool "stronger driver faster" true (hi_strong < hi_weak));
  ]

(* --- Route ----------------------------------------------------------- *)

let route_tests =
  let micron = 1e-6 in
  let poly len = Tech.Wire.segment ~layer:Tech.Wire.Poly ~length:(len *. micron) ~width:(4. *. micron) in
  let metal len =
    Tech.Wire.segment ~layer:Tech.Wire.Metal ~length:(len *. micron) ~width:(8. *. micron)
  in
  let gate = Tech.Mosfet.minimum_gate_load p in
  let simple_route () =
    Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
      [
        Tech.Route.branch
          [ poly 100. ]
          [
            Tech.Route.sink ~load:gate "near" [ poly 50. ];
            Tech.Route.sink ~load:(2. *. gate) "far" [ poly 200. ];
          ];
      ]
  in
  [
    Alcotest.test_case "sink names collected in order" `Quick (fun () ->
        Alcotest.(check (list string)) "names" [ "near"; "far" ]
          (Tech.Route.sink_names (simple_route ())));
    Alcotest.test_case "to_tree marks each sink" `Quick (fun () ->
        let tree = Tech.Route.to_tree p (simple_route ()) in
        check_int "outputs" 2 (List.length (Rctree.Tree.outputs tree));
        check_bool "near exists" true (Rctree.Tree.output_named tree "near" > 0));
    Alcotest.test_case "far sink is slower" `Quick (fun () ->
        let tree = Tech.Route.to_tree p (simple_route ()) in
        let d label =
          Rctree.Moments.elmore tree ~output:(Rctree.Tree.output_named tree label)
        in
        check_bool "ordering" true (d "far" > d "near"));
    Alcotest.test_case "layer change inserts a via" `Quick (fun () ->
        let r =
          Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
            [ Tech.Route.sink ~load:gate "s" [ metal 100.; poly 50. ] ]
        in
        let tree = Tech.Route.to_tree p r in
        check_bool "via node present" true (Rctree.Tree.find_node tree "via1" <> None);
        (* via adds exactly via_resistance to the path *)
        let total = Rctree.Tree.total_resistance tree in
        let expected =
          Tech.Mosfet.paper_superbuffer.Tech.Mosfet.on_resistance
          +. Tech.Route.via_resistance
          +. Tech.Wire.resistance p (poly 50.)
        in
        check_close ~eps:1e-9 "resistance" expected total);
    Alcotest.test_case "metal segments fold into capacitance" `Quick (fun () ->
        let r =
          Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
            [ Tech.Route.sink ~load:gate "s" [ metal 100. ] ]
        in
        let tree = Tech.Route.to_tree p r in
        (* driver node + nothing else: metal is a pure cap at the driver *)
        check_int "nodes" 2 (Rctree.Tree.node_count tree));
    Alcotest.test_case "total wire capacitance" `Quick (fun () ->
        let r = simple_route () in
        let expected =
          Tech.Wire.capacitance p (poly 100.)
          +. Tech.Wire.capacitance p (poly 50.)
          +. Tech.Wire.capacitance p (poly 200.)
        in
        check_close ~eps:1e-20 "cap" expected (Tech.Route.total_wire_capacitance p r));
    Alcotest.test_case "validation" `Quick (fun () ->
        check_invalid "no sinks" (fun () ->
            Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
              [ Tech.Route.branch [ poly 10. ] [] ]);
        check_invalid "dup sinks" (fun () ->
            Tech.Route.make ~driver:Tech.Mosfet.paper_superbuffer
              [
                Tech.Route.sink "x" [ poly 10. ];
                Tech.Route.sink "x" [ poly 20. ];
              ]);
        check_invalid "neg load" (fun () -> Tech.Route.sink ~load:(-1.) "x" []));
    Alcotest.test_case "bounds bracket the exact delay on a routed net" `Quick (fun () ->
        let tree = Tech.Route.to_tree p (simple_route ()) in
        let out = Rctree.Tree.output_named tree "far" in
        let ts = Rctree.Moments.times tree ~output:out in
        let exact = Circuit.Measure.exact_delay ~segments:16 tree ~output:out ~threshold:0.5 in
        check_bool "inside" true
          (Rctree.Bounds.t_min ts 0.5 <= exact && exact <= Rctree.Bounds.t_max ts 0.5));
  ]

(* --- Variation --------------------------------------------------------- *)

let variation_tests =
  let build_pla minterms process =
    let tree =
      Tech.Pla.line_tree process (Tech.Pla.default_params process) ~minterms
    in
    (tree, Rctree.Tree.output_named tree "out")
  in
  [
    Alcotest.test_case "corners order the delay" `Quick (fun () ->
        let delay process =
          let tree, out = build_pla 20 process in
          let h = Rctree.Analysis.make tree in
          snd (Rctree.Analysis.delay_bounds h ~output:(`Id out) ~threshold:0.7)
        in
        match Tech.Variation.corners p with
        | [ slow; typ; fast ] ->
            Alcotest.(check string) "names" "slow" slow.Tech.Variation.corner_name;
            check_bool "slow > typ" true (delay slow.Tech.Variation.process > delay typ.Tech.Variation.process);
            check_bool "typ > fast" true (delay typ.Tech.Variation.process > delay fast.Tech.Variation.process)
        | _ -> Alcotest.fail "three corners expected");
    Alcotest.test_case "corner spreads validated" `Quick (fun () ->
        check_invalid "spread" (fun () -> Tech.Variation.corners ~resistance_spread:1.5 p));
    Alcotest.test_case "monte carlo is deterministic per seed" `Quick (fun () ->
        let run () =
          Tech.Variation.monte_carlo ~samples:50 ~seed:7 p ~build:(build_pla 10) ~threshold:0.7
        in
        let (lo1, hi1) = run () and (lo2, hi2) = run () in
        check_close ~eps:0. "tmin mean" lo1.Tech.Variation.mean lo2.Tech.Variation.mean;
        check_close ~eps:0. "tmax p95" hi1.Tech.Variation.p95 hi2.Tech.Variation.p95);
    Alcotest.test_case "spread centred on the nominal window" `Quick (fun () ->
        let tree, out = build_pla 10 p in
        let lo_nom, hi_nom =
          Rctree.Analysis.delay_bounds (Rctree.Analysis.make tree) ~output:(`Id out) ~threshold:0.7
        in
        let lo, hi =
          Tech.Variation.monte_carlo ~samples:300 ~seed:3 p ~build:(build_pla 10) ~threshold:0.7
        in
        check_bool "tmin near nominal" true
          (Float.abs (lo.Tech.Variation.p50 -. lo_nom) /. lo_nom < 0.1);
        check_bool "tmax near nominal" true
          (Float.abs (hi.Tech.Variation.p50 -. hi_nom) /. hi_nom < 0.1));
    Alcotest.test_case "larger sigma, wider spread" `Quick (fun () ->
        let run sigma =
          snd
            (Tech.Variation.monte_carlo ~samples:200 ~seed:5 ~sigma_resistance:sigma p
               ~build:(build_pla 10) ~threshold:0.7)
        in
        let narrow = run 0.02 and wide = run 0.2 in
        check_bool "wider" true (wide.Tech.Variation.stddev > narrow.Tech.Variation.stddev));
    Alcotest.test_case "zero sigma collapses the spread" `Quick (fun () ->
        let lo, _ =
          Tech.Variation.monte_carlo ~samples:20 ~sigma_resistance:0. ~sigma_oxide:0. p
            ~build:(build_pla 10) ~threshold:0.7
        in
        check_close ~eps:1e-18 "sd" 0. lo.Tech.Variation.stddev);
    Alcotest.test_case "percentiles ordered" `Quick (fun () ->
        let _, hi =
          Tech.Variation.monte_carlo ~samples:200 ~seed:11 p ~build:(build_pla 20) ~threshold:0.7
        in
        check_bool "ordered" true
          (hi.Tech.Variation.p5 <= hi.Tech.Variation.p50
          && hi.Tech.Variation.p50 <= hi.Tech.Variation.p95));
    Alcotest.test_case "argument validation" `Quick (fun () ->
        check_invalid "samples" (fun () ->
            Tech.Variation.monte_carlo ~samples:0 p ~build:(build_pla 2) ~threshold:0.5);
        check_invalid "sigma" (fun () ->
            Tech.Variation.monte_carlo ~sigma_resistance:0.9 p ~build:(build_pla 2) ~threshold:0.5);
        check_invalid "empty spread" (fun () -> Tech.Variation.spread_of_samples [||]));
  ]

let () =
  Alcotest.run "tech"
    [
      ("process", process_tests);
      ("wire", wire_tests);
      ("mosfet", mosfet_tests);
      ("pla", pla_tests);
      ("route", route_tests);
      ("variation", variation_tests);
    ]
