//! Thread-width shim kept for the benchmark harness.
//!
//! Every `preqr-nn` kernel runs on the thread that calls it; this crate
//! spawns no thread. The two functions below are what `perfbench/` still
//! calls to pin and report the kernel width, which is always one. They go
//! once the benchmark stops calling them.

/// Accepts the benchmark harness's width pin. Kernels always run on the
/// calling thread, so `None` and `Some(1)` are the only widths there are.
///
/// # Panics
/// Panics on any other width.
pub fn set_thread_override(threads: Option<usize>) {
    assert!(
        matches!(threads, None | Some(1)),
        "preqr-nn kernels run on the calling thread; width {threads:?} is not available"
    );
}

/// Number of threads a kernel uses: always 1.
pub fn effective_threads() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_one_is_the_only_width() {
        set_thread_override(None);
        set_thread_override(Some(1));
        assert_eq!(effective_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "calling thread")]
    fn wider_override_panics() {
        set_thread_override(Some(2));
    }
}
