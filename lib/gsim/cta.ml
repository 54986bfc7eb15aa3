(* CTA instantiation: builds the warps of one thread block, its shared
   memory, and the memory interface its threads use.

   Local memory is modelled as a per-CTA scratch buffer indexed by the
   thread-local addresses the kernel computes; const and tex spaces
   read the global image (their caches are not modelled). *)

type t = {
  cta_lin : int;
  warps : Warp.t array;
  shared : Mem.t;
  launch : Launch.t;
}

let shared_size kernel =
  max 256 kernel.Ptx.Kernel.smem_bytes

let mem_iface (launch : Launch.t) shared local =
  { Warp.m_global = launch.Launch.global; m_shared = shared; m_local = local }

let create (launch : Launch.t) ~warp_size ~cta_lin =
  let kernel = launch.Launch.kernel in
  let nthreads = Launch.threads_per_cta launch in
  let nwarps = (nthreads + warp_size - 1) / warp_size in
  let shared = Mem.create (shared_size kernel) in
  let local = Mem.create (max 256 (nthreads * 64)) in
  let mem = mem_iface launch shared local in
  let ctaid = Launch.cta_coords launch cta_lin in
  let gx, gy, gz = launch.Launch.grid in
  let bx, by, bz = launch.Launch.block in
  let warps =
    Array.init nwarps (fun w ->
        let env =
          {
            Exec.ctaid;
            ntid = (bx, by, bz);
            nctaid = (gx, gy, gz);
            warp_in_cta = w;
          }
        in
        let base = w * warp_size in
        let lanes = min warp_size (nthreads - base) in
        let threads =
          Array.init warp_size (fun lane ->
              let linear = base + lane in
              {
                Exec.regs = Exec.make_regs kernel.Ptx.Kernel.nregs;
                preds = Array.make kernel.Ptx.Kernel.npregs false;
                tid =
                  (if lane < lanes then Launch.thread_coords launch linear
                   else (0, 0, 0));
                lane;
              })
        in
        Warp.create ~warp_id:w ~cta_lin ~decode:launch.Launch.decode ~env
          ~threads ~valid_mask:(Warp.full_mask lanes)
          ~params:launch.Launch.params ~reconv_of_pc:launch.Launch.reconv ~mem
          kernel)
  in
  { cta_lin; warps; shared; launch }

let n_warps t = Array.length t.warps

let all_finished t = Array.for_all Warp.finished t.warps
