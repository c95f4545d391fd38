type lang = C | Python | Nodejs

type t = {
  lang : lang;
  threads : int;
  text_pages : int;
  data_pages : int;
  stack_pages : int;
  arena_count : int;
  init_ns : Gh_sim.Time_ns.t;
  warmup_factor : float;
  layout_churn : int;
  dirty_chunk_pages : int;
  proxy_fixed_ns : int;
  proxy_per_kb_ns : int;
  restore_warmup_ns : int;
  fork_extra_ns : Gh_sim.Time_ns.t;
  gc_time_dependent : bool;
}

let ms = Gh_sim.Time_ns.of_ms

let c_runtime =
  {
    lang = C;
    threads = 1;
    text_pages = 180;
    data_pages = 40;
    stack_pages = 34;
    arena_count = 2;
    init_ns = ms 55.0;
    warmup_factor = 1.15;
    layout_churn = 2;
    dirty_chunk_pages = 8;
    proxy_fixed_ns = 60_000;
    proxy_per_kb_ns = 1_500;
    restore_warmup_ns = 330_000;
    fork_extra_ns = 0;
    gc_time_dependent = false;
  }

let python_runtime =
  {
    lang = Python;
    threads = 1;
    text_pages = 900;
    data_pages = 220;
    stack_pages = 64;
    arena_count = 14;
    init_ns = ms 185.0;
    warmup_factor = 1.6;
    layout_churn = 7;
    dirty_chunk_pages = 3;
    proxy_fixed_ns = 90_000;
    proxy_per_kb_ns = 1_500;
    restore_warmup_ns = 950_000;
    fork_extra_ns = ms 2.2;
    gc_time_dependent = false;
  }

let node_runtime =
  {
    lang = Nodejs;
    threads = 6;
    text_pages = 2_600;
    data_pages = 700;
    stack_pages = 128;
    arena_count = 42;
    init_ns = ms 260.0;
    warmup_factor = 1.8;
    layout_churn = 24;
    dirty_chunk_pages = 8;
    proxy_fixed_ns = 700_000;
    proxy_per_kb_ns = 20_000;
    restore_warmup_ns = 1_700_000;
    fork_extra_ns = ms 4.0;
    gc_time_dependent = true;
  }

let for_lang = function C -> c_runtime | Python -> python_runtime | Nodejs -> node_runtime
let lang_to_string = function C -> "c" | Python -> "python" | Nodejs -> "nodejs"
let lang_suffix = function C -> "(c)" | Python -> "(p)" | Nodejs -> "(n)"
