(* minihack_run: run, inspect, profile or verify a minihack source file.

     dune exec bin/minihack_run.exe -- run FILE [--profile]
     dune exec bin/minihack_run.exe -- dump FILE [--ast|--bytecode]
     dune exec bin/minihack_run.exe -- fmt FILE
     dune exec bin/minihack_run.exe -- verify FILE
     dune exec bin/minihack_run.exe -- verify --codegen tiny
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_errors f =
  try f () with
  | Minihack.Lexer.Error msg | Minihack.Parser.Error msg | Minihack.Compile.Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Interp.Engine.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    exit 2

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"minihack source file")

let run_cmd =
  let profile =
    Arg.(value & flag & info [ "profile" ] ~doc:"print tier-1 profile statistics after the run")
  in
  let no_inline_cache =
    Arg.(
      value & flag
      & info [ "no-inline-cache" ]
          ~doc:
            "run the interpreter's reference loop: no translation, no per-call-site inline caches \
             (results, output and step counts are identical, only slower)")
  in
  let action path profile no_inline_cache =
    with_errors (fun () ->
        let repo = Minihack.Compile.compile_source ~path (read_file path) in
        let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
        let heap = Mh_runtime.Heap.create repo layouts in
        let counters = Jit_profile.Counters.create repo in
        let probes = if profile then Jit_profile.Collector.probes counters else Interp.Probes.none in
        let engine =
          Interp.Engine.create ~probes ~inline_cache:(not no_inline_cache) repo heap
        in
        let result = Interp.Engine.run_main engine in
        print_string (Interp.Engine.output engine);
        Printf.printf "=> %s (%d bytecode instructions)\n"
          (Hhbc.Value.to_string result) (Interp.Engine.steps engine);
        if profile then begin
          Printf.printf "\nhottest functions:\n";
          List.iteri
            (fun i fid ->
              if i < 10 then
                Printf.printf "  %-24s %8d entries\n" (Hhbc.Repo.func repo fid).Hhbc.Func.name
                  (Jit_profile.Counters.func_entries counters fid))
            (Jit_profile.Counters.profiled_funcs counters)
        end)
  in
  Cmd.v (Cmd.info "run" ~doc:"compile and execute a program")
    Term.(const action $ file_arg $ profile $ no_inline_cache)

let dump_cmd =
  let what =
    Arg.(
      value
      & vflag `Bytecode
          [ (`Ast, info [ "ast" ] ~doc:"dump the parsed program (pretty-printed source)");
            (`Bytecode, info [ "bytecode" ] ~doc:"dump compiled bytecode (default)")
          ])
  in
  let action path what =
    with_errors (fun () ->
        let src = read_file path in
        match what with
        | `Ast -> print_string (Minihack.Pp.to_source (Minihack.Parser.parse_program src))
        | `Bytecode ->
          let repo = Minihack.Compile.compile_source ~path src in
          Format.printf "%a@.@." Hhbc.Repo.pp_summary repo;
          for fid = 0 to Hhbc.Repo.n_funcs repo - 1 do
            Format.printf "%a@.@." Hhbc.Func.pp (Hhbc.Repo.func repo fid)
          done)
  in
  Cmd.v (Cmd.info "dump" ~doc:"dump the AST or bytecode") Term.(const action $ file_arg $ what)

let fmt_cmd =
  let action path =
    with_errors (fun () ->
        print_string (Minihack.Pp.to_source (Minihack.Parser.parse_program (read_file path))))
  in
  Cmd.v (Cmd.info "fmt" ~doc:"reformat a source file to stdout") Term.(const action $ file_arg)

let verify_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"minihack source file")
  in
  let codegen =
    Arg.(
      value
      & opt (some (enum [ ("tiny", Workload.App_spec.tiny); ("default", Workload.App_spec.default) ])) None
      & info [ "codegen" ] ~docv:"SPEC"
          ~doc:"verify a generated synthetic app (tiny or default) instead of a source file")
  in
  let action path codegen =
    with_errors (fun () ->
        let what, repo =
          match (codegen, path) with
          | Some spec, _ -> ("generated app", (Workload.Codegen.generate spec).Workload.Codegen.repo)
          | None, Some path -> (path, Minihack.Compile.compile_source ~path (read_file path))
          | None, None ->
            Printf.eprintf "error: verify needs a FILE argument or --codegen\n";
            exit 1
        in
        let diags = Js_analysis.Verify.check_repo repo in
        List.iter (fun d -> print_endline (Js_analysis.Diag.to_string d)) diags;
        let errors = List.length (Js_analysis.Diag.errors diags) in
        let warnings = List.length diags - errors in
        Printf.printf "%s: verified %d functions: %d errors, %d warnings\n" what
          (Hhbc.Repo.n_funcs repo) errors warnings;
        if errors > 0 then exit 3)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "statically verify every compiled function body (stack depth, jump targets, locals, repo \
          links); exits 3 on error diagnostics")
    Term.(const action $ file $ codegen)

let () =
  let info = Cmd.info "minihack" ~doc:"the minihack language tool of the Jump-Start reproduction" in
  exit (Cmd.eval (Cmd.group info [ run_cmd; dump_cmd; fmt_cmd; verify_cmd ]))
