(* Reference cache: {!Machine.Cache} as it was before its MRU fast path,
   kept as a test oracle.  Every access scans the whole set and leaves a
   hit's scan with [raise Exit]. *)

type t = {
  cfg : Machine.Cache.config;
  tags : int array;
  lru : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  set_mask : int;
  line_shift : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (cfg : Machine.Cache.config) =
  {
    cfg;
    tags = Array.make (cfg.sets * cfg.ways) (-1);
    lru = Array.make (cfg.sets * cfg.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    set_mask = cfg.sets - 1;
    line_shift = log2 cfg.line_bytes;
  }

let access t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let base = set * t.cfg.ways in
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let hit = ref false in
  let victim = ref base in
  let oldest = ref max_int in
  (try
     for i = base to base + t.cfg.ways - 1 do
       if t.tags.(i) = line then begin
         t.lru.(i) <- t.clock;
         hit := true;
         raise Exit
       end;
       if t.lru.(i) < !oldest then begin
         oldest := t.lru.(i);
         victim := i
       end
     done
   with Exit -> ());
  if not !hit then begin
    t.misses <- t.misses + 1;
    t.tags.(!victim) <- line;
    t.lru.(!victim) <- t.clock
  end;
  !hit

let probe t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let base = set * t.cfg.ways in
  let rec scan i = i < base + t.cfg.ways && (t.tags.(i) = line || scan (i + 1)) in
  scan base

let stats t = { Machine.Cache.accesses = t.accesses; misses = t.misses }

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0
