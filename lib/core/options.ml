type t = {
  enabled : bool;
  bb_layout_opt : bool;
  func_sort_opt : bool;
  prop_reorder_opt : bool;
  validate_packages : bool;
  min_coverage_funcs : int;
  min_coverage_entries : int;
  max_boot_attempts : int;
  salvage_stale : bool;
  salvage_min_match : float;
}

let default =
  {
    enabled = true;
    bb_layout_opt = true;
    func_sort_opt = true;
    prop_reorder_opt = true;
    validate_packages = true;
    min_coverage_funcs = 10;
    min_coverage_entries = 100;
    max_boot_attempts = 3;
    salvage_stale = true;
    salvage_min_match = 0.5;
  }

let disabled = { default with enabled = false }

let no_steady_state_opts =
  { default with bb_layout_opt = false; func_sort_opt = false; prop_reorder_opt = false }
