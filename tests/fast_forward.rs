//! The fast-forward interpreter's caches are exact: checkpoint state and
//! miss counts after a long fast-forward, and the virtual memory-image
//! hash, are pinned to values recorded before the decode, translation and
//! counting-DTLB caches existed.

use smtx::workloads::{kernel_reference, Kernel};
use smtx_bench::make_checkpoint;

/// FNV-1a over little-endian words (the same mix as `content_hash`).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(kernel, pc, register-file hash, arch_misses_in_window(0, 500_000,
/// None))` after `make_checkpoint(kernel, 42, 1_000_000)`.
const PINNED: [(Kernel, u64, u64, u64); 8] = [
    (Kernel::Alphadoom, 0x1000_0088, 0xb8d3_fd77_6dc8_5c03, 47),
    (Kernel::Applu, 0x1000_00a0, 0xb9ff_ffab_ae0c_a2ac, 67),
    (Kernel::Compress, 0x1000_00a8, 0x09df_897e_d300_bcd9, 1101),
    (Kernel::Deltablue, 0x1000_0074, 0x25b8_b3d4_3695_ba01, 86),
    (Kernel::Gcc, 0x1000_006c, 0xdd01_a13b_6bab_89ea, 73),
    (Kernel::Hydro2d, 0x1000_006c, 0xeebc_2411_677f_3248, 115),
    (Kernel::Murphi, 0x1000_00d8, 0x0ac4_7b4c_6cab_a49d, 164),
    (Kernel::Vortex, 0x1000_0078, 0x2a85_2633_0f64_9cba, 416),
];

#[test]
fn checkpoint_state_and_window_misses_are_pinned_for_every_kernel() {
    assert_eq!(PINNED.map(|p| p.0), Kernel::ALL);
    for (kernel, pc, regs, misses) in PINNED {
        let ck = make_checkpoint(kernel, 42, 1_000_000);
        let t = &ck.threads()[0];
        let got = fnv(t.int_regs.iter().chain(&t.fp_regs).copied());
        assert_eq!((t.pc, got), (pc, regs), "{} checkpoint state", kernel.name());
        let window = ck.arch_misses_in_window(0, 500_000, None);
        assert_eq!(window, misses, "{} window misses", kernel.name());
    }
}

#[test]
fn content_hash_of_a_kernel_world_is_pinned() {
    let mut world = kernel_reference(Kernel::Compress, 42);
    assert_eq!(world.space.content_hash(&world.pm), 0xe533_75f8_d712_04ed);
    world.run(100_000);
    assert_eq!(world.space.content_hash(&world.pm), 0x9acd_890d_a9dd_2b32);
}
