(* The host's speed, measured with a fixed reference kernel.

   The benchmark runs on a few cores of a shared host whose speed drifts:
   for minutes at a time every replay, schedule and solve runs ~1.6x
   slower than in the host's fast state, CPU time included (it is slower
   execution, not time stolen from the process), and in the fast state
   single passes still jump by up to 1.4x for a second or so. A run in
   the slow state reads slow on every metric together, which no best-of
   or median inside the run can remove. So the run times this kernel
   between its measured units of work and scales each unit's time by
   [reference_s] over the kernel's time around it: the figures are
   seconds at the speed the host had in its fast state when the benchmark
   was written.

   The kernel is independent of the program under test: it calls nothing
   in the program's libraries and allocates nothing, so a change to the
   program or to its heap cannot change the kernel's time. It mixes two
   access patterns, because the host's slow state slows them by different
   factors and the program by a factor between them:
   - random leaf updates of a max tree over 2 MB, with the walk to the
     root (like the program's Timeline operations): ~1.35x slower;
   - short sequential writes and near reads through a 2 MB ring (like
     allocation in the minor heap): ~2.6x slower.
   The replays slow ~1.65x, the exact solves somewhat more. With the ring
   at about three tenths of the kernel's time in the fast state, the
   kernel slows ~1.7x. *)

let lcg s = ((s * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF

let tree_bits = 17
let tree = Array.make (2 lsl tree_bits) 0
let tree_steps = 25_000

let tree_part () =
  let leaves = 1 lsl tree_bits in
  let s = ref 7 in
  for k = 1 to tree_steps do
    s := lcg !s;
    let i = ref (leaves + ((!s lsr 16) land (leaves - 1))) in
    Array.unsafe_set tree !i (k lxor !s);
    while !i > 1 do
      let p = !i lsr 1 in
      let l = Array.unsafe_get tree (2 * p) and r = Array.unsafe_get tree ((2 * p) + 1) in
      Array.unsafe_set tree p (if l > r then l else r);
      i := p
    done
  done;
  tree.(1)

let ring_bits = 18
let ring = Array.make (1 lsl ring_bits) 0
let ring_steps = 250_000

let ring_part () =
  let mask = (1 lsl ring_bits) - 1 in
  let ptr = ref 0 and acc = ref 0 and s = ref 3 in
  for k = 1 to ring_steps do
    let p = !ptr in
    for j = 0 to 7 do
      Array.unsafe_set ring ((p + j) land mask) (k + j + !acc)
    done;
    s := lcg !s;
    acc := !acc + Array.unsafe_get ring ((p - ((!s lsr 16) land 65535)) land mask);
    ptr := (p + 8) land mask
  done;
  !acc

(* Keeps every part of the kernel live. *)
let sink = ref 0

(* One speed sample: the best of three kernel calls, in seconds. The best
   of three drops an interrupt and the cold caches the work before left. *)
let sample () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Spans.now_ns () in
    sink := !sink + tree_part () + ring_part ();
    best := Float.min !best (float_of_int (Spans.now_ns () - t0) /. 1e9)
  done;
  !best

(* The kernel's sample time in the host's fast state, on the machine the
   benchmark was written on (2-core x86-64 KVM guest, 4 MB L2 per core).
   It sets the unit of the scaled times, not their spread. *)
let reference_s = 0.0055

(* The factor that turns the seconds of a unit of work, between kernel
   samples [before] and [after], into seconds at the reference speed. *)
let scale ~before ~after = reference_s /. ((before +. after) /. 2.)
