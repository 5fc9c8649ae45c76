//! The reproduction driver's context: models are pre-trained once per
//! configuration and shared read-only, and artifacts are selected by name
//! before anything is built.

use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

use preqr::PreqrConfig;
use preqr_bench::{repro, Ctx, Sizes};
use preqr_nn::layers::Module;
use preqr_obs as obs;

/// Serializes the tests that pre-train, so one test's trace sink never
/// sees the other's spans.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_ctx() -> Ctx {
    let sizes = Sizes {
        movies: 400,
        pretrain: 16,
        pretrain_epochs: 1,
        train: 40,
        valid: 10,
        synthetic: 20,
        job: 10,
        est_epochs: 1,
        text_pairs: 10,
        text_epochs: 1,
        nc_samples: 50,
    };
    Ctx::new(sizes, PreqrConfig::test())
}

fn param_bits(model: &preqr::SqlBert) -> Vec<(String, Vec<u32>)> {
    model
        .named_params("m")
        .into_iter()
        .map(|(name, t)| (name, t.value().data().iter().map(|x| x.to_bits()).collect()))
        .collect()
}

#[test]
fn equal_configs_pretrain_once_and_share_the_model() {
    let _guard = lock();
    let ctx = tiny_ctx();
    let sink = Arc::new(obs::TestSink::new());
    obs::install_sink(sink.clone());
    let first = ctx.pretrained(ctx.config);
    // Built separately, equal field for field.
    let again = ctx.pretrained(PreqrConfig::test());
    let pretrains_after_equal = sink.count(obs::EventKind::Span, "bench.pretrained");
    let other = ctx.pretrained(ctx.config.without_schema());
    let pretrains_after_other = sink.count(obs::EventKind::Span, "bench.pretrained");
    obs::clear_sink();
    obs::set_metrics_enabled(false);
    obs::reset_metrics();

    assert!(Rc::ptr_eq(&first, &again), "equal configs must share one model");
    assert_eq!(pretrains_after_equal, 1);
    assert!(!Rc::ptr_eq(&first, &other), "a different config gets its own model");
    assert_eq!(pretrains_after_other, 2);
}

#[test]
fn table05_leaves_the_shared_model_untouched() {
    let _guard = lock();
    let ctx = tiny_ctx();
    let shared = ctx.pretrained(ctx.config);
    let before = param_bits(&shared);

    let table05 = repro::select(&["table05"]).expect("table05 is an artifact")[0];
    let mut out = Vec::new();
    (table05.run)(&ctx, &mut out).expect("write to memory");

    let text = String::from_utf8(out).expect("UTF-8");
    assert!(text.contains("Case 4"), "table05 wrote:\n{text}");
    assert!(Rc::ptr_eq(&shared, &ctx.pretrained(ctx.config)));
    assert!(param_bits(&shared) == before, "table05 changed the shared model's weights");
}

#[test]
fn unknown_artifact_names_list_the_valid_ones() {
    let err = match repro::select(&["table08", "table99"]) {
        Ok(_) => panic!("`table99` is not an artifact"),
        Err(e) => e,
    };
    assert!(err.contains("`table99`"), "{err}");
    for artifact in repro::ARTIFACTS {
        assert!(err.contains(artifact.id), "{err} does not list {}", artifact.id);
    }
    let all = repro::select::<&str>(&[]).expect("no names selects everything");
    assert_eq!(all.len(), repro::ARTIFACTS.len());
}
