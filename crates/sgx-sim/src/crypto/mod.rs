//! Minimal cryptographic primitives for the simulator and the apps.
//!
//! Only what the SGX model and the ported applications need: SHA-256 for
//! the web server's content digests, HMAC-SHA-256 as the stand-in for the
//! hardware's paging CMAC and for the apps' MACs, ChaCha20 for the tunnel
//! and the storage data path. These are verified against NIST / RFC test
//! vectors but are **not** hardened implementations — they exist so the
//! paging, tunnel and storage protocols can be executed faithfully without
//! external crypto dependencies.
//!
//! Each primitive has a portable kernel and, on `x86_64`, accelerated
//! ones: SHA-NI for one SHA-256 message, a 16-lane AVX-512 multi-buffer
//! kernel for sixteen equal-length messages side by side (reached through
//! [`HmacSha256::tag_each`], which is defined as — and elsewhere runs as —
//! one MAC per message), and the wide ChaCha20 body built at 8 lanes with
//! AVX2 and at 16 lanes with AVX-512. Which ones run is decided from what
//! the processor reports (`cpu`), at one dispatch point per primitive; all
//! produce the same bytes (DESIGN.md §16). All `unsafe` in this crate
//! lives in this module.

mod chacha20;
mod hmac;
mod sha256;

pub use chacha20::{
    chacha20_xor, chacha20_xor_at, chacha20_xor_offset, chacha20_xor_offset_portable, KEY_LEN,
    NONCE_LEN,
};
pub use hmac::{hmac_sha256, verify_tag, HmacSha256};
pub use sha256::Sha256;
pub(crate) use sha256::DIGEST_LEN;

/// What the CPU this process runs on offers the kernels — the only input
/// to kernel selection. Compiled for `x86_64` only (and not under Miri):
/// everywhere else the accelerated kernels do not exist and the portable
/// ones are the only path, by `cfg` rather than by a run-time answer.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod cpu {
    use std::arch::is_x86_feature_detected;

    /// SHA-NI plus the SSSE3 / SSE4.1 shuffles its kernel uses.
    #[inline]
    pub(super) fn has_sha_ni() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// AVX2, for the wide build of the 8-lane ChaCha20 body.
    #[inline]
    pub(super) fn has_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// AVX-512 F, for the 16-lane build of the ChaCha20 body.
    #[inline]
    pub(super) fn has_avx512f() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// AVX-512 F plus BW (the byte shuffle that turns big-endian message
    /// words around), for the 16-lane multi-buffer SHA-256 kernel.
    #[inline]
    pub(super) fn has_avx512bw() -> bool {
        has_avx512f() && is_x86_feature_detected!("avx512bw")
    }
}

#[cfg(test)]
mod tests {
    /// The skip note of the per-kernel test tables: says once per kernel
    /// that this CPU cannot run it, so a green run that checked fewer
    /// kernels says so.
    pub(super) fn note_missing_kernel(name: &'static str) {
        static NOTED: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
        let mut noted = NOTED.lock().expect("no test panics holding this lock");
        if !noted.contains(&name) {
            noted.push(name);
            eprintln!("skip: this CPU lacks the {name} kernel");
        }
    }
}
