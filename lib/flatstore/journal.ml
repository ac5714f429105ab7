type t = {
  mutable data : (unit -> unit) array;
  mutable len : int;
  mutable base : int;  (* absolute index of data.(0) *)
  mutable generation : int;  (* 0 until the first mark *)
  mutable bytes : int;
}

type 'a cell = { mutable value : 'a; mutable stamp : int }

let create () = { data = [||]; len = 0; base = 0; generation = 0; bytes = 0 }
let length t = t.len
let bytes t = t.bytes
let recording t = t.generation <> 0

let push t ~bytes undo =
  if t.len = Array.length t.data then begin
    let grown = Array.make (Stdlib.max 16 (2 * t.len)) ignore in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- undo;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + bytes

let cell value = { value; stamp = 0 }

let set t ~bytes c v =
  if t.generation <> 0 && c.stamp <> t.generation then begin
    let old = c.value in
    push t ~bytes (fun () -> c.value <- old);
    c.stamp <- t.generation
  end;
  c.value <- v

let mark t =
  t.generation <- t.generation + 1;
  t.base + t.len

let undo_to t mark =
  if mark > t.base + t.len then invalid_arg "Journal.undo_to: future mark";
  if mark < t.base then invalid_arg "Journal.undo_to: released mark";
  while t.base + t.len > mark do
    t.len <- t.len - 1;
    let undo = t.data.(t.len) in
    t.data.(t.len) <- ignore;
    undo ()
  done;
  (* Cells recorded before the undo must record again on their next
     write: this mark (or an older one) can still be restored. *)
  t.generation <- t.generation + 1

let release_below t mark =
  let mark = Stdlib.min mark (t.base + t.len) in
  if mark > t.base then begin
    let drop = mark - t.base in
    let keep = t.len - drop in
    Array.blit t.data drop t.data 0 keep;
    Array.fill t.data keep drop ignore;
    t.len <- keep;
    t.base <- mark
  end
