type level = { mutable tokens : float }

type t = {
  level : level;
  mutable active : bool array; (* indexed by thread id *)
  mutable marked : bool array; (* same length as [active] *)
  mutable n_active : int;
  mutable unmarked : int; (* active threads not yet marked this round *)
  mutable resets : int;
}

let create ~n_threads =
  if n_threads < 1 then invalid_arg "Global_bucket.create: n_threads < 1";
  {
    level = { tokens = 0.0 };
    active = Array.make n_threads true;
    marked = Array.make n_threads false;
    n_active = n_threads;
    unmarked = n_threads;
    resets = 0;
  }

let cell t = t.level
let level t = t.level.tokens

let clear_marks t =
  for i = 0 to Array.length t.marked - 1 do
    t.marked.(i) <- false
  done;
  t.unmarked <- t.n_active

let mark_round t ~thread_id =
  if thread_id < 0 || thread_id >= Array.length t.active || not t.active.(thread_id) then false
  else begin
    if not t.marked.(thread_id) then begin
      t.marked.(thread_id) <- true;
      t.unmarked <- t.unmarked - 1
    end;
    if t.unmarked = 0 then begin
      t.level.tokens <- 0.0;
      clear_marks t;
      t.resets <- t.resets + 1;
      true
    end
    else false
  end

let resets t = t.resets

let set_active_threads t ids =
  if ids = [] then invalid_arg "Global_bucket.set_active_threads: empty";
  if List.exists (fun i -> i < 0) ids then
    invalid_arg "Global_bucket.set_active_threads: negative thread id";
  let n = List.fold_left max (Array.length t.active - 1) ids + 1 in
  t.active <- Array.make n false;
  t.marked <- Array.make n false;
  List.iter (fun i -> t.active.(i) <- true) ids;
  t.n_active <- Array.fold_left (fun n a -> if a then n + 1 else n) 0 t.active;
  clear_marks t
