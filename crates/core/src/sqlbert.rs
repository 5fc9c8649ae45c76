//! SQLBERT (§3.5): the stack of `Trm_g` layers over composite input
//! embeddings and query-aware schema states, pre-trained with masked
//! language modelling (§3.5.2).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use preqr_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use preqr_nn::layers::{join, Linear, Module};
use preqr_nn::{ops, Matrix, Tensor};
use preqr_schema::Schema;
use preqr_sql::ast::Query;
use preqr_train::{
    CheckpointConfig, Plan, Schedule, StepOutput, TrainTask, Trainer, TrainerConfig,
};

use crate::config::PreqrConfig;
use crate::embedding::{InputEmbedding, PreparedQuery, ValueBuckets};
use crate::schema2graph::Schema2Graph;
use crate::trm_g::{SchemaKv, TrmG};

/// The full PreQR model.
pub struct SqlBert {
    /// Model configuration.
    pub config: PreqrConfig,
    input: InputEmbedding,
    schema2graph: Option<Schema2Graph>,
    layers: Vec<TrmG>,
    mlm_head: Linear,
    schema: Schema,
    /// The parameters the schema side is computed from: Schema2Graph's
    /// and each layer's schema-attention `wk`/`wv`. No path replaces
    /// these tensors, so the list is fixed at construction.
    schema_deps: Vec<Tensor>,
    /// The schema side for the current weights, filled on first use.
    schema_side: Mutex<Option<Arc<SchemaSide>>>,
    /// Every parameter, fixed at construction like `schema_deps`.
    weights: Vec<Tensor>,
    /// The summed write versions of `weights` when a fanned-out batch
    /// last started with its calling thread alone (see
    /// [`SqlBert::encode_batch`]).
    warm_key: AtomicU64,
}

/// The query-independent half of the model (Schema2Graph, §3.4): the
/// detached node states and each layer's schema-attention key/value
/// projections of them. It is current while the summed write versions
/// of the model's schema dependencies equal `key`; versions only grow,
/// so any write to a dependency changes the sum.
struct SchemaSide {
    key: u64,
    nodes: Tensor,
    kv: Vec<Option<SchemaKv>>,
}

/// The host's cores, read once: `available_parallelism` reads cgroup
/// files on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The schema node states of one training chunk, shared by its examples
/// (from [`SqlBert::chunk_nodes`]). Schema2Graph does not depend on the
/// query, so the chunk computes it once on the tape and hands every
/// example a detached, gradient-accumulating copy: each example's
/// backward stops at [`ChunkNodes::leaf`], which sums the chunk's node
/// gradients, and [`ChunkNodes::backward`] then runs one Schema2Graph
/// backward with that sum. The result is the per-example backward's
/// gradient, re-associated only inside Schema2Graph.
pub struct ChunkNodes {
    /// The node states on the tape.
    nodes: Tensor,
    /// A leaf copy of their value that the examples' backwards stop at.
    leaf: Tensor,
}

impl ChunkNodes {
    /// The node states the chunk's examples read (pass to
    /// [`SqlBert::mlm_loss`]).
    pub fn leaf(&self) -> &Tensor {
        &self.leaf
    }

    /// Backpropagates the chunk's summed node gradient through
    /// Schema2Graph, once. Call after the chunk's last example and before
    /// the optimizer step.
    pub fn backward(self) {
        if let Some(seed) = self.leaf.take_grad() {
            self.nodes.backward_with(seed);
        }
    }
}

/// Per-epoch training statistics — the shared `preqr-train` report type
/// (re-exported here because pre-training has always returned it).
pub use preqr_train::EpochStats;

/// Options for [`SqlBert::pretrain_with`]: the plain epochs/lr pair plus
/// the trainer capabilities (checkpointing, halting) that
/// [`SqlBert::pretrain`] leaves off.
#[derive(Clone, Debug)]
pub struct PretrainOptions {
    /// Number of epochs.
    pub epochs: usize,
    /// Base learning rate (warmup-linear schedule over the real step
    /// count).
    pub lr: f32,
    /// Periodic checkpointing with crash-resume.
    pub checkpoint: Option<CheckpointConfig>,
    /// Stop once the global step counter reaches this value.
    pub halt_after_steps: Option<u64>,
}

impl PretrainOptions {
    /// Plain pre-training: no checkpointing, no halting.
    pub fn new(epochs: usize, lr: f32) -> Self {
        Self { epochs, lr, checkpoint: None, halt_after_steps: None }
    }
}

impl SqlBert {
    /// Builds the model: vocabulary + automaton from the corpus, the
    /// schema graph from the schema, fresh weights from `config.seed`.
    pub fn new(
        corpus: &[Query],
        schema: &Schema,
        buckets: ValueBuckets,
        config: PreqrConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input = InputEmbedding::build(corpus, schema, buckets, config, &mut rng);
        let schema2graph =
            config.use_schema.then(|| Schema2Graph::build(schema, &config, &mut rng));
        let layers: Vec<TrmG> = (0..config.layers.max(1))
            .map(|_| TrmG::new(config.d_model, config.heads, config.use_schema, &mut rng))
            .collect();
        let mlm_head = Linear::new(config.output_dim(), input.vocab().len(), &mut rng);
        let mut schema_deps = schema2graph.as_ref().map(Module::params).unwrap_or_default();
        schema_deps.extend(layers.iter().flat_map(TrmG::schema_kv_params));
        let mut model = Self {
            config,
            input,
            schema2graph,
            layers,
            mlm_head,
            schema: schema.clone(),
            schema_deps,
            schema_side: Mutex::new(None),
            weights: Vec::new(),
            warm_key: AtomicU64::new(u64::MAX),
        };
        model.weights = model.params();
        model
    }

    /// The input-embedding module.
    pub fn input(&self) -> &InputEmbedding {
        &self.input
    }

    /// Mutable input-embedding access (incremental updates).
    pub fn input_mut(&mut self) -> &mut InputEmbedding {
        &mut self.input
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Schema2Graph module (when enabled).
    pub fn schema2graph(&self) -> Option<&Schema2Graph> {
        self.schema2graph.as_ref()
    }

    /// Applies a schema update (§3.6 Case 2).
    pub fn update_schema(&mut self, schema: &Schema) {
        // The graph changes without any weight write.
        *self.schema_side.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        self.schema = schema.clone();
        if let Some(s2g) = &mut self.schema2graph {
            s2g.update_schema(schema);
        }
    }

    /// Prepares a query for encoding.
    pub fn prepare(&self, q: &Query) -> PreparedQuery {
        self.input.prepare(q, &self.schema)
    }

    /// Current schema node states (with gradient tracking).
    pub fn node_states(&self) -> Option<Tensor> {
        self.schema2graph.as_ref().map(Schema2Graph::node_states)
    }

    /// The schema node states for one training chunk (`None` without the
    /// schema module): see [`ChunkNodes`].
    pub fn chunk_nodes(&self) -> Option<ChunkNodes> {
        let nodes = self.node_states()?;
        let leaf = Tensor::param(nodes.value_clone());
        Some(ChunkNodes { nodes, leaf })
    }

    /// Full forward pass to the final `n × output_dim` representation
    /// (Eq. 8: `y = Concat(e_q, e_g)` at the last layer). `nodes` defaults
    /// to fresh [`SqlBert::node_states`]; each layer projects them once,
    /// on the tape when it records.
    pub fn forward(
        &self,
        pq: &PreparedQuery,
        overrides: Option<&[Option<usize>]>,
        nodes: Option<&Tensor>,
        training: bool,
        rng: &mut StdRng,
    ) -> Tensor {
        let x = self.input.forward_with_override(pq, overrides, training, rng);
        let owned_nodes;
        let nodes_ref = match (nodes, &self.schema2graph) {
            (Some(n), _) => Some(n),
            (None, Some(s2g)) => {
                owned_nodes = s2g.node_states();
                Some(&owned_nodes)
            }
            (None, None) => None,
        };
        let all = 0..self.layers.len();
        self.stack(all.clone(), x, &self.schema_kv(all, nodes_ref))
    }

    /// The schema K/V of `layers` for one pass over `nodes`, one entry per
    /// layer (`None`s without the schema module): the cached projections
    /// when `nodes` may use them ([`SqlBert::cached_for`]), else each
    /// layer's projection of `nodes`, on the tape when it records.
    fn schema_kv(&self, layers: Range<usize>, nodes: Option<&Tensor>) -> Vec<Option<SchemaKv>> {
        match self.cached_for(nodes) {
            Some(side) => side.kv[layers].to_vec(),
            None => {
                self.layers[layers].iter().map(|l| nodes.and_then(|n| l.project_nodes(n))).collect()
            }
        }
    }

    /// Runs `layers` in order over `x`, each against its entry of `kv`.
    /// Returns the next layer's input, or Eq. 8's final representation
    /// when `layers` ends at the last layer.
    fn stack(&self, layers: Range<usize>, mut x: Tensor, kv: &[Option<SchemaKv>]) -> Tensor {
        let last = self.layers.len() - 1;
        for (i, kv) in layers.zip(kv) {
            let out = self.layers[i].forward(&x, kv.as_ref());
            x = if i == last { out.final_rep() } else { out.merged };
        }
        x
    }

    fn schema_key(&self) -> u64 {
        self.schema_deps.iter().map(Tensor::version).sum()
    }

    /// The cached schema side slot.
    fn side_slot(&self) -> MutexGuard<'_, Option<Arc<SchemaSide>>> {
        self.schema_side.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The schema side for the current weights (`None` without the schema
    /// module), computed tape-free on the first call after a write to one
    /// of its dependencies or a schema update. The slot is not locked
    /// while the side is computed: threads that find it cold at once each
    /// compute it, and all of them return the first one stored.
    fn schema_side(&self) -> Option<Arc<SchemaSide>> {
        let s2g = self.schema2graph.as_ref()?;
        let key = self.schema_key();
        let current = |slot: &Option<Arc<SchemaSide>>| slot.clone().filter(|s| s.key == key);
        if let Some(side) = current(&self.side_slot()) {
            return Some(side);
        }
        let side = preqr_nn::no_grad(|| {
            let nodes = s2g.node_states();
            let kv = self.layers.iter().map(|l| l.project_nodes(&nodes)).collect();
            Arc::new(SchemaSide { key, nodes, kv })
        });
        let mut slot = self.side_slot();
        Some(current(&slot).unwrap_or_else(|| slot.insert(side).clone()))
    }

    /// The cached schema side, when caller-held `nodes` may use it:
    /// under no_grad, and only if `nodes` is the current cached tensor
    /// itself. Never fills the cache. The tape-recording paths project
    /// `nodes` in every layer, so gradients still reach `wk`/`wv`.
    fn cached_for(&self, nodes: Option<&Tensor>) -> Option<Arc<SchemaSide>> {
        let nodes = nodes.filter(|_| preqr_nn::no_grad_active())?;
        let side = self.side_slot().clone()?;
        (side.nodes.id() == nodes.id() && side.key == self.schema_key()).then_some(side)
    }

    /// Builds an MLM example: masked positions (80 % `[MASK]`, 10 %
    /// random maskable token, 10 % unchanged) and per-position targets
    /// (`usize::MAX` = not predicted).
    pub fn mlm_corrupt(
        &self,
        pq: &PreparedQuery,
        rng: &mut StdRng,
    ) -> (Vec<Option<usize>>, Vec<usize>) {
        let n = pq.len();
        let mut overrides: Vec<Option<usize>> = vec![None; n];
        let mut targets: Vec<usize> = vec![usize::MAX; n];
        let candidates: Vec<usize> = (0..n).filter(|&i| pq.tokens[i].maskable).collect();
        if candidates.is_empty() {
            return (overrides, targets);
        }
        let mut chosen: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|_| rng.random::<f32>() < self.config.mask_prob)
            .collect();
        if chosen.is_empty() {
            chosen.push(candidates[rng.random_range(0..candidates.len())]);
        }
        for i in chosen {
            targets[i] = pq.tokens[i].vocab_id;
            let r: f32 = rng.random();
            overrides[i] = if r < 0.8 {
                Some(self.input.mask_id())
            } else if r < 0.9 {
                Some(self.input.random_maskable_id(rng))
            } else {
                None
            };
        }
        (overrides, targets)
    }

    /// One MLM loss computation (no optimizer step). Returns the loss
    /// tensor, the number of masked positions, and how many were
    /// predicted correctly (greedy).
    pub fn mlm_loss(
        &self,
        pq: &PreparedQuery,
        nodes: Option<&Tensor>,
        rng: &mut StdRng,
    ) -> (Tensor, usize, usize) {
        let (overrides, targets) = self.mlm_corrupt(pq, rng);
        let reps = self.forward(pq, Some(&overrides), nodes, true, rng);
        self.mlm_score(&reps, &targets)
    }

    /// Eval-mode MLM score of one freshly corrupted example: no dropout,
    /// no tape, no parameter change. Returns the masked positions' mean
    /// cross-entropy, their count, and how many the greedy prediction got
    /// right. `rng` draws only the corruption.
    pub fn mlm_eval(&self, pq: &PreparedQuery, rng: &mut StdRng) -> (f64, usize, usize) {
        let (overrides, targets) = self.mlm_corrupt(pq, rng);
        preqr_nn::no_grad(|| {
            let reps = self.forward(pq, Some(&overrides), None, false, rng);
            let (loss, masked, correct) = self.mlm_score(&reps, &targets);
            (f64::from(loss.value_clone().get(0, 0)), masked, correct)
        })
    }

    /// MLM head over the masked rows of `reps`: cross-entropy loss, masked
    /// count, greedy-correct count.
    fn mlm_score(&self, reps: &Tensor, targets: &[usize]) -> (Tensor, usize, usize) {
        let masked: Vec<usize> = (0..targets.len()).filter(|&i| targets[i] != usize::MAX).collect();
        if masked.is_empty() {
            return (ops::sum_all(&ops::scale(reps, 0.0)), 0, 0);
        }
        let rows = ops::gather_rows(reps, &masked);
        let logits = self.mlm_head.forward(&rows);
        let masked_targets: Vec<usize> = masked.iter().map(|&i| targets[i]).collect();
        // Greedy accuracy for monitoring.
        let lv = logits.value_clone();
        let mut correct = 0;
        for (r, &t) in masked_targets.iter().enumerate() {
            let row = lv.row(r);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row");
            if argmax == t {
                correct += 1;
            }
        }
        let loss = ops::cross_entropy_logits(&logits, &masked_targets);
        (loss, masked.len(), correct)
    }

    /// Pre-trains with MLM over the corpus (§3.5.2). Queries are prepared
    /// once; Adam with linear warmup; gradients accumulate over
    /// micro-batches of 8. Each micro-batch computes the schema node
    /// states once and backpropagates through Schema2Graph once, with the
    /// node gradient summed over its examples ([`ChunkNodes`]). Returns
    /// per-epoch statistics.
    pub fn pretrain(&mut self, corpus: &[Query], epochs: usize, lr: f32) -> Vec<EpochStats> {
        self.pretrain_with(corpus, PretrainOptions::new(epochs, lr))
    }

    /// [`SqlBert::pretrain`] with the full trainer surface: periodic
    /// checkpointing with crash-resume, and halting at a step boundary.
    pub fn pretrain_with(&mut self, corpus: &[Query], opts: PretrainOptions) -> Vec<EpochStats> {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let prepared: Vec<PreparedQuery> = corpus.iter().map(|q| self.prepare(q)).collect();
        let mut config = TrainerConfig::new(
            Plan::Epochs { epochs: opts.epochs, chunk: 8, shuffle: true },
            opts.lr,
        )
        .with_schedule(Schedule::bert(opts.epochs, corpus.len(), 8));
        config.checkpoint = opts.checkpoint;
        config.halt_after_steps = opts.halt_after_steps;
        let mut task = PretrainTask { model: &*self, prepared, nodes: None };
        let report = Trainer::new(config).fit(&mut task, &mut rng);
        obs::flush_metrics();
        report.stats
    }

    /// Encodes one micro-batch of queries (eval mode, tape-free). The
    /// schema side — node states and each layer's schema K/V — comes from
    /// the model's cache, computed once per weight version on the calling
    /// thread; each query then runs an independent forward over it.
    ///
    /// A batch of two or more queries is spread over the host's cores:
    /// the calling thread and up to `cores − 1` scoped threads take the
    /// queries one at a time, in input order, until none are left, and
    /// every output is returned at its query's index. After a weight
    /// write, the calling thread encodes the first query alone before the
    /// others start. A batch of one runs on the calling thread alone.
    ///
    /// The cached schema side holds the same values a fresh single-query
    /// pass computes, queries never attend to each other, and no kernel's
    /// arithmetic depends on the thread that runs it, so every output is
    /// bit-identical to [`SqlBert::encode`] of that query alone — batch
    /// composition, order and thread count can never change an
    /// embedding. The serving layer's batching is built on this contract
    /// (`crates/serve`), and [`SqlBert::encode`] itself is the
    /// batch-of-one special case.
    pub fn encode_batch(&self, qs: &[Query]) -> Vec<Matrix> {
        let all = 0..self.layers.len();
        let kv = self.schema_side().map_or_else(|| vec![None; all.len()], |side| side.kv.clone());
        let encode_one = |q: &Query| {
            let pq = self.prepare(q);
            let mut rng = StdRng::seed_from_u64(0);
            self.stack(all.clone(), self.input.forward(&pq, false, &mut rng), &kv).value_clone()
        };
        let workers = cores().min(qs.len());
        if workers <= 1 {
            return preqr_nn::no_grad(|| qs.iter().map(encode_one).collect());
        }
        let mut out: Vec<Option<Matrix>> = vec![None; qs.len()];
        // After a write, the calling thread encodes the first query alone
        // before any worker starts. That packs the cold weight panels once,
        // in the calling thread's heap, instead of once per worker in
        // allocator arenas the worker threads leave behind (+23 MiB peak
        // RSS on `encode_bulk` on a 2-vCPU host without it).
        let key: u64 = self.weights.iter().map(Tensor::version).sum();
        let mut first = 0;
        // Relaxed: the key publishes nothing; a stale one only changes
        // which thread packs the panels.
        if self.warm_key.swap(key, Ordering::Relaxed) != key {
            out[0] = Some(preqr_nn::no_grad(|| encode_one(&qs[0])));
            first = 1;
        }
        let next = AtomicUsize::new(first);
        // The no-grad mode is per-thread, so each worker opens its own.
        let work = || {
            preqr_nn::no_grad(|| {
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(q) = qs.get(i) else { break done };
                    done.push((i, encode_one(q)));
                }
            })
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut place = |done: Vec<(usize, Matrix)>| {
                for (i, m) in done {
                    out[i] = Some(m);
                }
            };
            place(work());
            for h in helpers {
                place(h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
        });
        out.into_iter().map(|m| m.expect("every query is encoded")).collect()
    }

    /// Encodes a query (eval mode, tape-free, over the cached schema
    /// side): the batch-of-one [`SqlBert::encode_batch`].
    pub fn encode(&self, q: &Query) -> Matrix {
        self.encode_batch(std::slice::from_ref(q)).pop().expect("batch of one yields one")
    }

    /// The detached schema node states for the current weights (`None`
    /// without the schema module). They are computed once per weight
    /// version and shared: calls with no weight write in between return
    /// the same tensor, and [`SqlBert::lower_states`] and
    /// [`SqlBert::last_layer_encode`] handed that tensor under no_grad
    /// reuse the cached schema K/V too.
    pub fn cached_nodes(&self) -> Option<Tensor> {
        self.schema_side().map(|side| side.nodes.clone())
    }

    /// The `[CLS]` vector of a query — the aggregate sequence
    /// representation used for similarity and as downstream input.
    pub fn cls_vector(&self, q: &Query) -> Vec<f32> {
        self.encode(q).row(0).to_vec()
    }

    /// Interpretability: the first layer's query→schema attention
    /// weights for a query, with vertex display names. Returns `None`
    /// when the schema module is disabled. Shape is `n_tokens × |V|`.
    pub fn schema_attention(&self, q: &Query) -> Option<(Vec<String>, Matrix)> {
        let s2g = self.schema2graph.as_ref()?;
        let attn = preqr_nn::no_grad(|| {
            let nodes = self.cached_nodes()?;
            let pq = self.prepare(q);
            let mut rng = StdRng::seed_from_u64(0);
            let x = self.input.forward(&pq, false, &mut rng);
            self.layers.first()?.schema_attention(&x, &nodes)
        })?;
        let names = s2g
            .graph()
            .vertices()
            .iter()
            .map(|v| match &v.kind {
                preqr_schema::graph::VertexKind::Table { table } => table.clone(),
                preqr_schema::graph::VertexKind::Column { table, column } => {
                    format!("{table}.{column}")
                }
            })
            .collect();
        Some((names, attn.value_clone()))
    }

    /// Eval-mode output of all layers *below* the last one (the frozen
    /// prefix of fine-tuning), tape-free. Deterministic, so it can be
    /// cached per query across fine-tuning epochs. Handed
    /// [`SqlBert::cached_nodes`], it reuses the cached schema K/V;
    /// otherwise each layer projects `nodes` once.
    pub fn lower_states(&self, pq: &PreparedQuery, nodes: Option<&Tensor>) -> Matrix {
        preqr_nn::no_grad(|| {
            let lower = 0..self.layers.len() - 1;
            let mut rng = StdRng::seed_from_u64(0);
            let x = self.input.forward(pq, false, &mut rng);
            self.stack(lower.clone(), x, &self.schema_kv(lower, nodes)).value_clone()
        })
    }

    /// Runs only the last `Trm_g` layer on cached lower states and returns
    /// the final `n × output_dim` representation. On the tape it projects
    /// `nodes` itself, so gradients reach every last-layer parameter;
    /// under no_grad and handed [`SqlBert::cached_nodes`], it reuses the
    /// cached schema K/V.
    pub fn last_layer_encode(&self, lower: &Matrix, nodes: Option<&Tensor>) -> Tensor {
        let last = self.layers.len() - 1..self.layers.len();
        let kv = self.schema_kv(last.clone(), nodes);
        self.stack(last, Tensor::constant(lower.clone()), &kv)
    }

    /// Parameters of the last `Trm_g` layer (the subset §3.6 Case 1
    /// retrains in place).
    pub fn last_layer_params(&self) -> Vec<Tensor> {
        self.layers.last().expect("at least one layer").params()
    }

    /// A new `Trm_g` layer holding the last layer's current weights, for a
    /// downstream head to fine-tune (§4.3.2) while the model stays as
    /// pre-trained. Its forward over [`SqlBert::lower_states`] is
    /// bit-identical to [`SqlBert::last_layer_encode`] until trained.
    pub fn last_layer_copy(&self) -> TrmG {
        let c = &self.config;
        // The initial weights are overwritten; the seed is arbitrary.
        let copy = TrmG::new(c.d_model, c.heads, c.use_schema, &mut StdRng::seed_from_u64(0));
        for (dst, src) in copy.params().iter().zip(self.last_layer_params()) {
            dst.set_value(src.value_clone());
        }
        copy
    }

    /// Parameters of the Input Embedding module (§3.6 Case 3 subset).
    pub fn input_params(&self) -> Vec<Tensor> {
        self.input.params()
    }

    /// Parameters of the Schema2Graph module (§3.6 Case 2 subset).
    pub fn schema_params(&self) -> Vec<Tensor> {
        self.schema2graph.as_ref().map(Module::params).unwrap_or_default()
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.param_count()
    }

    /// Saves all parameters to a checkpoint file.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        preqr_nn::serialize::save_to_file(path, &self.named_params("preqr"))
    }

    /// Loads parameters from a checkpoint created by [`SqlBert::save`]
    /// into this model. The model must have been built with the same
    /// corpus/schema/config (vocabulary and automaton construction are
    /// deterministic, so rebuilding reproduces the architecture). Like
    /// pre-training and the §3.6 updates, it takes the model mutably:
    /// nothing that holds a shared `&SqlBert` writes a weight.
    ///
    /// # Errors
    /// I/O failures, or an architecture mismatch.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let loaded = preqr_nn::serialize::load_from_file(path).map_err(|e| e.to_string())?;
        preqr_nn::serialize::apply_params(&self.named_params("preqr"), &loaded)?;
        Ok(())
    }
}

/// The MLM pre-training workload (§3.5.2), driven by the shared
/// `preqr-train` Trainer: each micro-batch computes the schema node
/// states once (`chunk_start`), each example masks tokens with the
/// trainer-owned rng and backpropagates to the chunk's node leaf, and
/// `chunk_end` runs the one Schema2Graph backward before the optimizer
/// step ([`ChunkNodes`]). The `pretrain.{masked,correct}_tokens`
/// counters are bumped from the epoch-end hook (epochs, steps, samples
/// and loss are the Trainer's `train.*` metrics).
struct PretrainTask<'a> {
    model: &'a SqlBert,
    prepared: Vec<PreparedQuery>,
    nodes: Option<ChunkNodes>,
}

impl TrainTask for PretrainTask<'_> {
    fn name(&self) -> &'static str {
        "pretrain"
    }

    fn len(&self) -> usize {
        self.prepared.len()
    }

    fn params(&self) -> Vec<Tensor> {
        self.model.params()
    }

    fn chunk_start(&mut self) {
        self.nodes = self.model.chunk_nodes();
    }

    fn step(&mut self, idx: usize, rng: &mut StdRng) -> StepOutput {
        let nodes = self.nodes.as_ref().map(ChunkNodes::leaf);
        let (loss, masked, correct) = self.model.mlm_loss(&self.prepared[idx], nodes, rng);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, masked, correct }
    }

    fn chunk_end(&mut self) {
        if let Some(nodes) = self.nodes.take() {
            nodes.backward();
        }
    }

    fn epoch_end(&mut self, st: &preqr_train::EpochStats) {
        obs::counter_add(obs::Metric::PretrainMaskedTokens, st.masked as u64);
        obs::counter_add(obs::Metric::PretrainCorrectTokens, st.correct as u64);
    }
}

impl Module for SqlBert {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.input.collect_params(&join(prefix, "input"), out);
        if let Some(s2g) = &self.schema2graph {
            s2g.collect_params(&join(prefix, "schema2graph"), out);
        }
        for (i, l) in self.layers.iter().enumerate() {
            l.collect_params(&join(prefix, &format!("layer{i}")), out);
        }
        self.mlm_head.collect_params(&join(prefix, "mlm_head"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_schema::{Column, ColumnType, ForeignKey, Table};
    use preqr_sql::parser::parse;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(Table::new(
            "title",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("production_year", ColumnType::Int),
                Column::new("kind_id", ColumnType::Int),
            ],
        ));
        s.add_table(Table::new(
            "movie_companies",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("movie_id", ColumnType::Int),
                Column::new("company_id", ColumnType::Int),
            ],
        ));
        s.add_foreign_key(ForeignKey {
            from_table: "movie_companies".into(),
            from_column: "movie_id".into(),
            to_table: "title".into(),
            to_column: "id".into(),
        });
        s
    }

    fn corpus() -> Vec<Query> {
        let mut out = Vec::new();
        for y in [1990, 2000, 2005, 2010] {
            out.push(
                parse(&format!("SELECT COUNT(*) FROM title t WHERE t.production_year > {y}"))
                    .unwrap(),
            );
            out.push(
                parse(&format!(
                    "SELECT COUNT(*) FROM title t, movie_companies mc \
                     WHERE t.id = mc.movie_id AND t.production_year > {y}"
                ))
                .unwrap(),
            );
        }
        out
    }

    fn buckets() -> ValueBuckets {
        let mut b = ValueBuckets::new(4);
        b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
        b.insert("title", "kind_id", (1..8).map(f64::from).collect());
        b.insert("movie_companies", "company_id", (1..100).map(f64::from).collect());
        b
    }

    fn model() -> SqlBert {
        SqlBert::new(&corpus(), &schema(), buckets(), PreqrConfig::test())
    }

    #[test]
    fn encode_shape_is_output_dim() {
        let m = model();
        let q = &corpus()[1];
        let e = m.encode(q);
        let pq = m.prepare(q);
        assert_eq!(e.shape(), (pq.len(), PreqrConfig::test().output_dim()));
    }

    #[test]
    fn mlm_corrupt_masks_only_maskable_positions() {
        let m = model();
        let pq = m.prepare(&corpus()[0]);
        let mut rng = StdRng::seed_from_u64(5);
        let (overrides, targets) = m.mlm_corrupt(&pq, &mut rng);
        let masked: Vec<usize> = (0..targets.len()).filter(|&i| targets[i] != usize::MAX).collect();
        assert!(!masked.is_empty(), "at least one position must be masked");
        for &i in &masked {
            assert!(pq.tokens[i].maskable, "masked a non-maskable position {i}");
            assert_eq!(targets[i], pq.tokens[i].vocab_id);
        }
        // Overrides only at masked positions.
        for (i, o) in overrides.iter().enumerate() {
            if o.is_some() {
                assert!(masked.contains(&i));
            }
        }
    }

    #[test]
    fn pretraining_reduces_loss_and_raises_accuracy() {
        let mut m = model();
        let stats = m.pretrain(&corpus(), 8, 5e-3);
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(
            last.loss < first.loss * 0.8,
            "MLM loss should drop: {} → {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy > first.accuracy, "accuracy should rise");
    }

    #[test]
    fn equivalent_queries_embed_closer_than_unrelated_after_pretraining() {
        let mut m = model();
        let _ = m.pretrain(&corpus(), 6, 5e-3);
        let a = m.cls_vector(
            &parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000").unwrap(),
        );
        let b = m.cls_vector(
            &parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 2001").unwrap(),
        );
        let c = m.cls_vector(
            &parse(
                "SELECT COUNT(*) FROM title t, movie_companies mc \
                 WHERE t.id = mc.movie_id AND mc.company_id = 3",
            )
            .unwrap(),
        );
        let cos = |x: &[f32], y: &[f32]| {
            let dot: f32 = x.iter().zip(y).map(|(a, b)| a * b).sum();
            let nx: f32 = x.iter().map(|v| v * v).sum::<f32>().sqrt();
            let ny: f32 = y.iter().map(|v| v * v).sum::<f32>().sqrt();
            dot / (nx * ny).max(1e-9)
        };
        assert!(
            cos(&a, &b) > cos(&a, &c),
            "same-template queries should be closer: {} vs {}",
            cos(&a, &b),
            cos(&a, &c)
        );
    }

    #[test]
    fn finetune_gradients_touch_only_last_layer() {
        // The path estimation fine-tuning runs: frozen lower states, then
        // the last layer with gradients, both over the cached node states.
        let m = model();
        let pq = m.prepare(&corpus()[0]);
        let nodes = m.cached_nodes();
        let lower = m.lower_states(&pq, nodes.as_ref());
        let reps = m.last_layer_encode(&lower, nodes.as_ref());
        ops::sum_all(&reps).backward();
        // Every last-layer parameter except the inter-layer merge (which
        // Eq. 8 bypasses at the last layer) must receive gradients.
        let with_grad = m
            .named_params("m")
            .into_iter()
            .filter(|(n, _)| n.contains("layer0") && !n.contains("g_merge"))
            .all(|(_, p)| p.grad().is_some());
        assert!(with_grad, "last layer must receive gradients");
        for p in m.input_params() {
            assert!(p.grad().is_none(), "input embedding must stay frozen");
        }
        for p in m.schema_params() {
            assert!(p.grad().is_none(), "schema module must stay frozen");
        }
    }

    #[test]
    fn bert_only_ablation_runs_without_schema() {
        let m = SqlBert::new(&corpus(), &schema(), buckets(), PreqrConfig::test().bert_only());
        assert!(m.schema2graph().is_none());
        let e = m.encode(&corpus()[0]);
        assert_eq!(e.cols(), PreqrConfig::test().d_model);
    }

    #[test]
    fn outside_in_composition_reuses_cached_kv_and_matches_encode() {
        let m = model();
        let q = &corpus()[1];
        let pq = m.prepare(q);
        let nodes = m.cached_nodes();
        let composed = preqr_nn::no_grad(|| {
            assert!(m.cached_for(nodes.as_ref()).is_some(), "cached nodes select the cached K/V");
            let lower = m.lower_states(&pq, nodes.as_ref());
            m.last_layer_encode(&lower, nodes.as_ref()).value_clone()
        });
        assert_eq!(composed, m.encode(q));
        // A caller-held copy of the same values is not the cached tensor.
        let copy = nodes.as_ref().map(Tensor::detach);
        assert!(preqr_nn::no_grad(|| m.cached_for(copy.as_ref())).is_none());
    }

    #[test]
    fn last_layer_encode_under_grad_trains_the_schema_projections() {
        let m = model();
        let pq = m.prepare(&corpus()[1]);
        let nodes = m.cached_nodes();
        let lower = m.lower_states(&pq, nodes.as_ref());
        assert!(m.cached_for(nodes.as_ref()).is_none(), "no K/V reuse while taping");
        let reps = m.last_layer_encode(&lower, nodes.as_ref());
        assert_eq!(reps.value_clone(), m.encode(&corpus()[1]));
        ops::sum_all(&reps).backward();
        let kv = m.layers.last().unwrap().schema_kv_params();
        assert!(kv.iter().all(|p| p.grad().is_some()), "wk/wv must receive gradients");
    }

    #[test]
    fn schema_attention_matches_tracked_path_bit_exactly() {
        let m = model();
        let q = &corpus()[1];
        let mut rng = StdRng::seed_from_u64(0);
        let x = m.input.forward(&m.prepare(q), false, &mut rng);
        let nodes = m.node_states().unwrap();
        let want = m.layers[0].schema_attention(&x, &nodes).unwrap().value_clone();
        assert!(!preqr_nn::no_grad_active());
        let (names, got) = m.schema_attention(q).unwrap();
        assert_eq!(got, want);
        assert_eq!(names.len(), got.cols());
    }

    #[test]
    fn encode_batch_matches_single_encodes_bit_exactly() {
        let m = model();
        let qs = corpus();
        let batched = m.encode_batch(&qs);
        assert_eq!(batched.len(), qs.len());
        for (q, b) in qs.iter().zip(&batched) {
            assert_eq!(&m.encode(q), b, "batched embedding must equal the single-query one");
        }
        assert!(m.encode_batch(&[]).is_empty(), "empty batch is a no-op");
    }

    #[test]
    fn no_grad_encode_matches_tracked_eval_forward_bit_exactly() {
        // The inference mode must gate bookkeeping only: an eval forward
        // with the tape recording produces the same bytes as the
        // tape-free path `encode` takes.
        let m = model();
        let q = &corpus()[1];
        let pq = m.prepare(q);
        let mut rng = StdRng::seed_from_u64(0);
        let tracked = m.forward(&pq, None, None, false, &mut rng);
        assert!(!preqr_nn::no_grad_active());
        assert_eq!(tracked.value_clone(), m.encode(q));
    }

    #[test]
    fn parameter_count_is_substantial_and_named() {
        let m = model();
        assert!(m.num_parameters() > 10_000);
        let names: Vec<String> = m.named_params("preqr").into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n.contains("input.tok")));
        assert!(names.iter().any(|n| n.contains("schema2graph.gcn0")));
        assert!(names.iter().any(|n| n.contains("layer0.g_attn")));
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "parameter names must be unique");
    }
}
