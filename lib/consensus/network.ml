module Rng = Amm_crypto.Rng

type delivery = Deliver | Drop | Duplicate of float | Delay of float

type 'msg t = {
  rng : Rng.t;
  delta : float;
  queue : (int * 'msg) Pqueue.t;
  chaos : (now:float -> src:int -> dst:int -> delivery) option;
}

let create ?chaos ~rng ~delta () = { rng; delta; queue = Pqueue.create (); chaos }
let delta t = t.delta

let send t ~at ~src ~dst msg =
  (* The base delay is always drawn, chaos or not, so a run with no
     chaos hook consumes the identical rng sequence as before. *)
  let delay = t.delta *. (0.1 +. (0.9 *. Rng.float t.rng)) in
  match t.chaos with
  | None -> Pqueue.push t.queue (at +. delay) (dst, msg)
  | Some decide -> (
    match decide ~now:at ~src ~dst with
    | Deliver -> Pqueue.push t.queue (at +. delay) (dst, msg)
    | Drop -> ()
    | Delay extra -> Pqueue.push t.queue (at +. delay +. extra) (dst, msg)
    | Duplicate extra ->
      Pqueue.push t.queue (at +. delay) (dst, msg);
      Pqueue.push t.queue (at +. delay +. extra) (dst, msg))

let broadcast t ~at ~src ~dsts msg = List.iter (fun dst -> send t ~at ~src ~dst msg) dsts

let schedule t ~at ~dst msg = Pqueue.push t.queue at (dst, msg)

let next t =
  match Pqueue.pop t.queue with
  | Some (time, (dst, msg)) -> Some (time, dst, msg)
  | None -> None

let pending t = Pqueue.length t.queue
