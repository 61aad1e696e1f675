(* Benchmark harness entry point: regenerates every table/figure of the
   reproduction (see DESIGN.md's experiment index). Run all experiments, or
   a subset: `dune exec bench/main.exe -- E1 E5`. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("E1", "compute-bound kernels", Experiments.e1);
    ("E2", "syscall microbenchmarks", Regress.Micro.table);
    ( "E3+E4",
      "application workloads + overhead decomposition",
      fun () ->
        let rows = Experiments.e3 () in
        Experiments.e4 (List.map snd rows) );
    ("E5", "malicious-OS attacks", Experiments.e5);
    ("E6", "multi-shadow vs single-shadow", Experiments.e6);
    ("E7", "cloaked file I/O designs", Experiments.e7);
    ("E8", "crypto cost model", Experiments.e8_model);
    ("E9", "ablations: quantum + TLB size", Experiments.e9);
    ("E10", "read-only plaintext optimization", Experiments.e10);
    ("E8b", "host wall-clock per layer (bechamel)", Wallclock.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  let find name =
    List.find_opt
      (fun (n, _, _) -> String.lowercase_ascii n = String.lowercase_ascii name)
      experiments
  in
  Printf.printf "Overshadow reproduction benchmark harness (deterministic cycle model)\n";
  List.iter
    (fun name ->
      match find name with
      | Some (n, desc, run) ->
          Printf.printf "\n[%s] %s\n%!" n desc;
          run ()
      | None ->
          Printf.printf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
    requested
