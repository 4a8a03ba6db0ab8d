(* jspkg: save, inspect and replay Jump-Start profile packages on disk.

   This is the paper's §III item 4 use case: "if a collected profile
   triggers a JIT bug, compiler engineers can use that to replay and step
   through the execution of the JIT in order to reproduce and understand the
   issue, as well as to verify whether or not a candidate fix actually
   works."

     dune exec bin/jspkg.exe -- collect prog.mh -o prog.jspkg [--runs N]
     dune exec bin/jspkg.exe -- inspect prog.jspkg prog.mh
     dune exec bin/jspkg.exe -- verify  prog.jspkg prog.mh
     dune exec bin/jspkg.exe -- replay  prog.jspkg prog.mh
*)

open Cmdliner
module JS = Jumpstart

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let with_errors f =
  try f () with
  | Minihack.Lexer.Error msg | Minihack.Parser.Error msg | Minihack.Compile.Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Interp.Engine.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let load_repo path = Minihack.Compile.compile_source ~path (read_file path)

(* traffic = repeatedly invoking the program's entry point *)
let main_traffic runs engine =
  for _ = 1 to runs do
    ignore (Interp.Engine.run_main engine);
    Mh_runtime.Heap.reset_arena (Interp.Engine.heap engine)
  done

let source_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"PROG.mh")
let package_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"PKG.jspkg")

let collect_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"PKG" ~doc:"output package path")
  in
  let runs =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"profiled executions of main()")
  in
  let action src_path out runs =
    with_errors (fun () ->
        let repo = load_repo src_path in
        let options = { JS.Options.default with JS.Options.min_coverage_funcs = 1; min_coverage_entries = 1 } in
        match
          JS.Seeder.run repo options ~profile_traffic:(main_traffic runs)
            ~optimized_traffic:(main_traffic runs) ~validation_traffic:(main_traffic 3) ~region:0
            ~bucket:0 ~seeder_id:0 ()
        with
        | Error msg ->
          Printf.eprintf "seeder rejected the profile: %s\n" msg;
          exit 3
        | Ok outcome ->
          write_file out outcome.JS.Seeder.bytes;
          Printf.printf "wrote %d bytes to %s\n" (String.length outcome.JS.Seeder.bytes) out;
          Format.printf "%a@." JS.Package.pp_meta outcome.JS.Seeder.package.JS.Package.meta)
  in
  Cmd.v
    (Cmd.info "collect" ~doc:"run the seeder pipeline on a program and save the package")
    Term.(const action $ source_pos 0 $ out $ runs)

let inspect_cmd =
  let action pkg_path src_path =
    with_errors (fun () ->
        let repo = load_repo src_path in
        match JS.Package.of_bytes repo (read_file pkg_path) with
        | Error msg ->
          Printf.eprintf "invalid package: %s\n" msg;
          exit 3
        | Ok p ->
          Format.printf "%a@." JS.Package.pp_meta p.JS.Package.meta;
          Printf.printf "preload units (%d):" (Array.length p.JS.Package.preload_units);
          Array.iter
            (fun uid -> Printf.printf " %s" (Hhbc.Repo.unit_of repo uid).Hhbc.Unit_def.path)
            p.JS.Package.preload_units;
          print_newline ();
          Printf.printf "function placement order (first 15):\n";
          Array.iteri
            (fun i fid ->
              if i < 15 then
                Printf.printf "  %2d. %-24s (%d profiled entries)\n" (i + 1)
                  (Hhbc.Repo.func repo fid).Hhbc.Func.name
                  (Jit_profile.Counters.func_entries p.JS.Package.counters fid))
            p.JS.Package.func_order;
          let props = Jit_profile.Counters.prop_table p.JS.Package.counters in
          if props <> [] then begin
            Printf.printf "hottest properties (the §V-C \"K::P\" table):\n";
            List.iteri
              (fun i (key, count) -> if i < 10 then Printf.printf "  %-28s %8d accesses\n" key count)
              (List.sort (fun (_, a) (_, b) -> compare b a) props)
          end;
          let cg = Jit.Vasm_profile.call_graph p.JS.Package.vasm in
          Printf.printf "tier-2 call graph: %d arcs\n" (List.length cg))
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"decode a package against a program's repo and summarize it")
    Term.(const action $ package_pos 0 $ source_pos 1)

let verify_cmd =
  let action pkg_path src_path =
    with_errors (fun () ->
        let repo = load_repo src_path in
        match JS.Package.of_bytes repo (read_file pkg_path) with
        | Error msg ->
          Printf.eprintf "invalid package: %s\n" msg;
          exit 3
        | Ok p ->
          let diags = JS.Package_check.check repo p in
          List.iter (fun d -> print_endline (Js_analysis.Diag.to_string d)) diags;
          let errors = List.length (Js_analysis.Diag.errors diags) in
          let warnings = List.length diags - errors in
          Printf.printf "%s against %s: %d errors, %d warnings\n" pkg_path src_path errors warnings;
          if errors > 0 then exit 4)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "decode a package (exit 3 on framing/decode damage) and run the profile-consistency pass \
          against a program's repo (exit 4 on error diagnostics)")
    Term.(const action $ package_pos 0 $ source_pos 1)

let replay_cmd =
  let action pkg_path src_path =
    with_errors (fun () ->
        let repo = load_repo src_path in
        match JS.Package.of_bytes repo (read_file pkg_path) with
        | Error msg ->
          Printf.eprintf "invalid package: %s\n" msg;
          exit 3
        | Ok p -> (
          match JS.Consumer.boot_with_package repo JS.Options.default p with
          | Error msg ->
            (* this is precisely the condition the tool exists to capture *)
            Printf.printf "JIT replay FAILED (reproduced from the saved profile): %s\n" msg;
            exit 4
          | Ok vm ->
            Printf.printf "JIT replay ok: %d translations, hot %d B, cold %d B\n"
              vm.JS.Consumer.compiled.Jit.Compiler.n_translations
              (Jit.Code_cache.used_hot vm.JS.Consumer.compiled.Jit.Compiler.cache)
              (Jit.Code_cache.used_cold vm.JS.Consumer.compiled.Jit.Compiler.cache);
            Hashtbl.iter
              (fun fid vf ->
                Printf.printf "  %-24s %4d blocks %6d B  %d inlined\n"
                  (Hhbc.Repo.func repo fid).Hhbc.Func.name (Vasm.Vfunc.n_blocks vf)
                  (Vasm.Vfunc.code_size vf)
                  (Vasm.Inline_tree.n_inlined vf.Vasm.Vfunc.tree))
              vm.JS.Consumer.compiled.Jit.Compiler.vfuncs;
            let engine = JS.Consumer.serving_engine vm () in
            let result = Interp.Engine.run_main engine in
            print_string (Interp.Engine.output engine);
            Printf.printf "main() under the replayed configuration => %s\n"
              (Hhbc.Value.to_string result)))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"boot a consumer from a saved package (reproduce JIT behaviour from a profile)")
    Term.(const action $ package_pos 0 $ source_pos 1)

let () =
  let info = Cmd.info "jspkg" ~doc:"save, inspect and replay Jump-Start profile packages" in
  exit (Cmd.eval (Cmd.group info [ collect_cmd; inspect_cmd; verify_cmd; replay_cmd ]))
