package djbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.ann.BruteForce
import repro.bench.{Equi, World}
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed.{CellEmbedder, ColumnEmbedder, PlmConfig, PlmEmbedder}
import repro.eval.Metrics
import repro.join.{Joinability, Josie, LshEnsemble, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.Tokenizer
import scala.collection.mutable

/** The DeepJoin benchmark: one run of one workload.
  *
  * Set-up (Spark session, lake generation, fine-tuning, baseline index
  * builds) runs [[SetupReps]] times and reports the median. The build phase
  * encodes the repository on Spark and inserts it into HNSW. The query phase
  * is a closed loop from this one thread with k = 10 that interleaves the
  * probes in chunks by time share: a warm-up, then `--seconds` of measured
  * calls; every latency is a percentile of the samples pooled over all
  * measured passes.
  *
  * `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the run
  * with spans around the calls into each module and reports per-layer
  * metrics. Results go to `--out` as JSON; `run.py` checks and prints them.
  */
object Main {

  val K = 10
  val Ef = 96
  val Tau = 0.9
  /** Spark `local[n]` width: the JVM's processor count, which run.py pins. */
  val Threads: Int = Runtime.getRuntime.availableProcessors
  val SetupReps = 3
  val BuildReps = 3
  /** Warm-up time of the query loop, shared by the probes like the
    * measured time; training, the builds and the checks have already run
    * the encoder and the indexes.
    */
  val WarmupMs = 2500.0
  /** Calls each probe has made by the end of its warm-up top-up ... */
  val WarmupCalls = 20000
  /** ... unless the top-up has run this long. */
  val WarmupTopUpMs = 200.0
  /** Minimum run of consecutive calls of one probe in the query loop. */
  val ChunkMs = 50.0
  /** The timed probes draw from this many times more queries than the
    * quality metrics use: a percentile over many distinct queries varies
    * less from seed to seed than one over repeated passes of a few.
    */
  val PoolFactor = 4
  /** The `>50` size band of Table 15. */
  val LongBandLo = 51

  /** A workload: how its repository and queries are drawn from the lake. */
  final case class Workload(
      name: String,
      nRepo: Int,
      nTrain: Int,
      nQuery: Int,
      exactSample: Int,
      pexesoQueries: Int,
      repo: (SparkSession, LakeConfig, Int) => Dataset[LakeColumn],
      queries: (LakeConfig, Int) => Seq[LakeColumn])

  val workloads: Seq[Workload] = Seq(
    Workload("webtable", nRepo = 1500, nTrain = 600, nQuery = 300, exactSample = 12, pexesoQueries = 80,
      repo = (s, c, n) => LakeGenerator.columns(s, c, n),
      queries = (c, n) => LakeGenerator.queriesLocal(c, n)),
    Workload("long-columns", nRepo = 300, nTrain = 600, nQuery = 100, exactSample = 6, pexesoQueries = 16,
      repo = (s, c, n) => LakeGenerator.columnsInSizeBand(s, c, n, LongBandLo, c.maxCells, salt = 0xf15L),
      queries = (c, n) => LakeGenerator.queriesInSizeBandLocal(c, n, LongBandLo, c.maxCells)))

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, traceOut: String, workDir: String)

  def main(argv: Array[String]): Unit = {
    val a = parseArgs(argv)
    SelfTest.run()
    if (a.workload == "self-test") { println("self-tests passed"); return }
    val w = workloads.find(_.name == a.workload)
      .getOrElse(sys.error(s"unknown workload ${a.workload}"))
    val result = new Run(w, a).execute()
    val f = new java.io.PrintWriter(a.out, "UTF-8")
    try f.println(Json.write(result)) finally f.close()
  }

  private def parseArgs(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    Args(get("workload"), m.getOrElse("seed", "0").toLong, m.getOrElse("seconds", "12").toDouble,
      m.getOrElse("trace", "0") == "1", m.getOrElse("out", "result.json"),
      m.getOrElse("trace-out", "trace.jsonl"), m.getOrElse("work-dir", "."))
  }

  /** Search output check: min(k, |X|) distinct repository ids by
    * non-decreasing distance.
    */
  def searchOk(res: Seq[(Long, Float)], repoIds: java.util.HashSet[Long], n: Int): Boolean =
    res.size == math.min(K, n) &&
      res.map(_._1).distinct.size == res.size &&
      res.forall { case (id, d) => repoIds.contains(id) && !d.isNaN } &&
      res.iterator.sliding(2).forall(p => p.size < 2 || p(0)._2 <= p(1)._2)

  /** Exact top-k by a joinability function, ties broken by id ascending
    * (the ranking JOSIE and PEXESO promise); zero-jn columns are omitted.
    */
  def bruteTopK(ids: Seq[Long], jn: Int => Double, k: Int): Seq[(Long, Double)] =
    ids.indices.map(i => (ids(i), jn(i))).filter(_._2 > 0)
      .sortBy { case (id, j) => (-j, id) }.take(k)

  def sameRanking(a: Seq[(Long, Double)], b: Seq[(Long, Double)]): Boolean =
    a.size == b.size && a.zip(b).forall { case ((i1, j1), (i2, j2)) =>
      i1 == i2 && math.abs(j1 - j2) < 1e-9 }

  /** Encoder tokens of a query's rendered cells, as `encodeCells` counts
    * them: one per cell token (one for a token-less cell), capped at the
    * contextualizer's limit, at least one.
    */
  def encoderTokens(cells: Seq[String], maxTokens: Int): Int = {
    var n = 0
    val it = cells.iterator
    while (it.hasNext && n < maxTokens) n += math.max(1, Tokenizer.tokenize(it.next()).length)
    math.max(1, math.min(n, maxTokens))
  }

  /** Visit order of the timed query pool: the queries ranked by size, then
    * taken in bit-reversed rank order. Every prefix of the order is spread
    * evenly over the pool's size distribution, so a probe that gets through
    * only part of the pool still samples small and large queries in the
    * pool's proportions (stratified sampling): its percentiles vary less
    * from seed to seed, and every query is still visited in a long run.
    */
  def stratifiedOrder(sizes: IndexedSeq[Int]): IndexedSeq[Int] = {
    val bySize = sizes.indices.sortBy(i => (sizes(i), i))
    val bits = 32 - Integer.numberOfLeadingZeros(math.max(1, sizes.size - 1))
    (0 until (1 << bits)).map(j => Integer.reverse(j) >>> (32 - bits)).filter(_ < sizes.size).map(bySize)
  }

  /** Transformer-part flops of one query: 2·L²·d per attention layer plus
    * 2·L·d² per feed-forward layer, d = the encoder's cell dimension.
    */
  def encoderFlops(l: Int, d: Int, attnLayers: Int, ffnLayers: Int): Double =
    attnLayers * 2.0 * l * l * d + ffnLayers * 2.0 * l * d.toDouble * d
}

/** Everything one set-up produces. */
final class Setup(
    val spark: SparkSession,
    val repo: IndexedSeq[LakeColumn],
    val queries: IndexedSeq[LakeColumn],
    /** The timed probes' queries: [[Main.PoolFactor]] × as many, generated
      * with `queries` as their prefix, in [[Main.stratifiedOrder]].
      */
    val pool: IndexedSeq[LakeColumn],
    val repoDs: Dataset[LakeColumn],
    val model: PlmEmbedder,
    val positives: Int,
    val josie: Josie,
    val lsh: LshEnsemble,
    val pexeso: Pexeso)

/** The built DeepJoin indexes: CPU, GPU-sim and (traced runs) a traced
  * embedder, all over one HNSW graph and id array.
  */
final class Built(val index: DeepJoinIndex, val gpu: DeepJoinIndex, val traced: DeepJoinIndex)

/** A ColumnEmbedder that records an `embed.encode` span per call, so the
  * encode inside `DeepJoin.search` shows as a child of `core.search`.
  */
final class TracedEmbedder(inner: ColumnEmbedder, tracer: Tracer) extends ColumnEmbedder {
  def name: String = inner.name
  def dim: Int = inner.dim
  def embed(col: LakeColumn): Array[Float] = tracer.span("embed.encode")(inner.embed(col))
}

/** One timed probe of the query phase, with its output check and its share
  * of the loop's time.
  */
abstract class Probe(val name: String, val share: Double) {
  type R
  def call(q: LakeColumn): R
  def ok(q: LakeColumn, r: R): Boolean
}

final class Run(w: Main.Workload, a: Main.Args) {
  import Main._

  private val cfg = LakeConfig.webtable(a.seed)
  private val tracer = new Tracer
  private var attempted = 0L
  private var failed = 0L
  private val checkFailures = mutable.LinkedHashMap.empty[String, Long]
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val passInfo = mutable.LinkedHashMap.empty[String, Any]

  private def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  private var phaseStart = 0L

  /** Record the wall time since the previous phase ended (environment block). */
  private def phase(name: String): Unit = {
    val now = System.nanoTime()
    passInfo(s"phase_s.$name") = math.round((now - phaseStart) / 1e7) / 100.0
    phaseStart = now
  }

  /** Count one operation or output check; a throw or a false is a failure. */
  private def check(what: String)(body: => Boolean): Unit = {
    attempted += 1
    val good = try body catch { case e: Exception =>
      System.err.println(s"[djbench] $what threw: $e"); false }
    if (!good) { failed += 1; checkFailures(what) = checkFailures.getOrElse(what, 0L) + 1 }
  }

  def execute(): Map[String, Any] = {
    val setupS = mutable.ArrayBuffer.empty[Double]
    var setup: Setup = null
    for (_ <- 0 until SetupReps) {
      if (setup != null) setup.spark.stop()
      val t0 = System.nanoTime()
      setup = setupOnce()
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val s = setup
    val gc0 = gcTotals()
    phaseStart = System.nanoTime()
    val holder = new AtomicReference[Built](build(s))
    s.spark.stop() // the query phase runs on this thread alone
    System.gc() // collect Spark's leftovers now, not in a timed window
    phase("build")
    if (a.trace) tracedQueries(s, holder.get) else untracedQueries(s, holder.get)
    phase("queries")
    val gc1 = gcTotals()
    if (a.trace) {
      metric("jvm.gc_ms", (gc1._1 - gc0._1).toDouble, "ms")
      metric("jvm.gc_count", (gc1._2 - gc0._2).toDouble, "count")
      layerMetrics(s, holder.get)
      check("trace spans nest") {
        val errs = Tracer.nestingErrors(tracer.spans)
        errs.take(5).foreach(e => System.err.println(s"[djbench] trace: $e"))
        errs.isEmpty
      }
      writeTrace()
    }
    if (!a.trace) {
      metric("setup_s", Stats.median(setupS.toSeq), "s")
      metric("index_heap_mb", retainedMb(holder), "MiB") // drops the index
      metric("success_rate", (attempted - failed).toDouble / attempted, "ratio")
    }
    phase("heap_and_trace")
    Map(
      "attempted" -> attempted,
      "failed" -> failed,
      "check_failures" -> checkFailures.toMap,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }.toMap,
      "env" -> env(s, setupS.toSeq))
  }

  // ---------------------------------------------------------------- set-up

  private def newSession(): SparkSession = {
    val dir = new java.io.File(a.workDir).getAbsoluteFile
    val s = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("djbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * Threads).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new java.io.File(dir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(dir, "spark-warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** World memoizes corpora, positives and models by corpus name; clear
    * those maps so every set-up repetition does the full work.
    */
  private def clearWorldCaches(): Unit =
    World.getClass.getDeclaredFields
      .filter(f => classOf[mutable.Map[_, _]].isAssignableFrom(f.getType))
      .foreach { f => f.setAccessible(true); f.get(World).asInstanceOf[mutable.Map[_, _]].clear() }

  private def setupOnce(): Setup = tracer.request("setup") {
    val spark = tracer.span("spark.session")(newSession())
    import spark.implicits._
    val (repo, train, pool) = tracer.span("lake.gen") {
      val repo = w.repo(spark, cfg, w.nRepo).collect().sortBy(_.id).toIndexedSeq
      val train = LakeGenerator.columns(spark, cfg, w.nTrain, idOffset = 500000000L)
        .collect().sortBy(_.id).toIndexedSeq
      (repo, train, w.queries(cfg, PoolFactor * w.nQuery).toIndexedSeq)
    }
    val queries = pool.take(w.nQuery)
    require(repo.size == w.nRepo && pool.size == PoolFactor * w.nQuery,
      s"lake generated ${repo.size}/${w.nRepo} columns and ${pool.size} queries")
    val repoDs = spark.createDataset(repo).cache()
    val corpus = World.Corpus(cfg, repo, train, queries, repoDs, spark.createDataset(train))
    clearWorldCaches()
    val model = tracer.span("train.fit")(World.trainDeepJoin(spark, corpus, Equi, PlmConfig.mpnet))
    val positives = World.positives(spark, corpus, Equi).size
    val cols = repo.map(c => (c.id, c.cells))
    val josie = tracer.span("join.josie_build")(Josie.build(cols))
    val lsh = tracer.span("join.lsh_build")(LshEnsemble.build(cols))
    val pexeso = tracer.span("join.pexeso_build")(Pexeso.build(cols))
    new Setup(spark, repo, queries, stratifiedOrder(pool.map(_.size)).map(pool), repoDs, model,
      positives, josie, lsh, pexeso)
  }

  // ----------------------------------------------------------------- build

  private val buildS = mutable.ArrayBuffer.empty[Double]

  /** [[BuildReps]] full builds (encode on Spark, then HNSW insertion); the
    * last one is kept. Repeating lets the median skip JIT warm-up of the
    * first build.
    */
  private def build(s: Setup): Built = {
    var index: DeepJoinIndex = null
    for (_ <- 0 until BuildReps) tracer.request("build") {
      val (emb, encMs) = tracer.timed("core.encode_all")(DeepJoin.encodeAll(s.spark, s.repoDs, s.model))
      val (idx, idxMs) = tracer.timed("core.build_index")(DeepJoin.buildIndex(emb, s.model))
      buildS += (encMs + idxMs) / 1e3
      index = idx
    }
    if (!a.trace) metric("build_cols_per_s", s.repo.size / Stats.median(buildS.toSeq), "cols/s")
    val gpuModel = new PlmEmbedder(s.model.cfg, s.model.ctx, s.model.head, parallel = true,
      idfPooling = s.model.idfPooling)
    new Built(index, new DeepJoinIndex(index.hnsw, index.ids, gpuModel),
      new DeepJoinIndex(index.hnsw, index.ids, new TracedEmbedder(s.model, tracer)))
  }

  /** Heap retained by the DeepJoin indexes: live heap after a full GC with
    * them reachable, minus live heap after the holder, their only strong
    * reference, drops them. Live heap is each pool's usage as the collector
    * left it, so allocation after the GC does not count; Spark is stopped
    * first so its threads are quiet.
    */
  private def retainedMb(holder: AtomicReference[Built]): Double = {
    import scala.jdk.CollectionConverters._
    val pools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == java.lang.management.MemoryType.HEAP && p.getCollectionUsage != null)
    def liveAfterGc(): Long = {
      (0 until 2).foreach(_ => System.gc())
      pools.map(_.getCollectionUsage.getUsed).sum
    }
    val before = liveAfterGc()
    holder.set(null)
    (before - liveAfterGc()) / (1024.0 * 1024.0)
  }

  // ---------------------------------------------------------- query phase

  private def repoIdSet(s: Setup): java.util.HashSet[Long] = {
    val h = new java.util.HashSet[Long]()
    s.repo.foreach(c => h.add(c.id))
    h
  }

  /** A `DeepJoin.search` probe. */
  private def searchProbe(name: String, share: Double, idx: DeepJoinIndex,
                          ids: java.util.HashSet[Long]): Probe =
    new Probe(name, share) {
      type R = Seq[(Long, Float)]
      def call(q: LakeColumn): R = DeepJoin.search(idx, q, K, Ef)._1
      def ok(q: LakeColumn, r: R): Boolean = searchOk(r, ids, idx.size)
    }

  /** JOSIE, LSH Ensemble and PEXESO probes over the timed query pool. */
  private def baselineProbes(s: Setup): Seq[(Probe, IndexedSeq[LakeColumn])] = Seq(
    new Probe("josie", 0.1) {
      type R = Seq[(Long, Double)]
      def call(q: LakeColumn): R = s.josie.topK(q.cells, K)
      def ok(q: LakeColumn, r: R): Boolean = r.size <= K
    } -> s.pool,
    new Probe("lsh", 0.1) {
      type R = Seq[(Long, Double)]
      def call(q: LakeColumn): R = s.lsh.topK(q.cells, K)
      def ok(q: LakeColumn, r: R): Boolean = r.size <= K && r.forall { case (_, c) => c >= 0 && c <= 1 }
    } -> s.pool,
    new Probe("pexeso", 0.25) {
      type R = Seq[(Long, Double)]
      def call(q: LakeColumn): R = s.pexeso.topK(q.cells, Tau, K)
      def ok(q: LakeColumn, r: R): Boolean = r.size <= K
    } -> s.pool)

  /** One timed, checked call; sampled only when measuring. */
  private def call(p: Probe, q: LakeColumn, into: Samples): Unit = check(p.name) {
    val t0 = System.nanoTime()
    val r = p.call(q)
    val t1 = System.nanoTime()
    if (into != null) into.add((t1 - t0) / 1e6)
    p.ok(q, r)
  }

  /** The closed loop: probes take turns in chunks of at least [[ChunkMs]]
    * of consecutive calls, each next chunk going to the probe furthest below
    * its share of the time spent so far, and each probe cycling through its
    * queries. So every probe samples the whole loop evenly, which averages
    * over the machine's speed changes, while a chunk keeps the probe's
    * caches and worker threads warm; cheap probes get many samples.
    *
    * Warm-up, discarded: [[WarmupMs]] run the same way, then each probe is
    * topped up to [[WarmupCalls]] calls (at most [[WarmupTopUpMs]] each),
    * since the JIT compiles on call counts, not time. Every measured call
    * goes into the probe's pooled samples.
    */
  private def closedLoop(probes: Seq[(Probe, IndexedSeq[LakeColumn])],
                         afterWarmup: () => Unit = () => ()): Map[String, Samples] = {
    val n = probes.size
    val spent = new Array[Double](n)
    val next = new Array[Int](n)
    def step(i: Int, into: Samples): Unit = {
      val (p, queries) = probes(i)
      call(p, queries(next(i) % queries.size), into)
      next(i) += 1
    }
    def elapsedMs(t0: Long): Double = (System.nanoTime() - t0) / 1e6
    def run(budgetMs: Double, samples: IndexedSeq[Samples]): Unit = {
      java.util.Arrays.fill(spent, 0.0)
      java.util.Arrays.fill(next, 0)
      val t0 = System.nanoTime()
      while (elapsedMs(t0) < budgetMs || spent.contains(0.0)) {
        var i = 0
        var j = 1
        while (j < n) { if (spent(j) / probes(j)._1.share < spent(i) / probes(i)._1.share) i = j; j += 1 }
        val c0 = System.nanoTime()
        do step(i, samples(i)) while (elapsedMs(c0) < ChunkMs)
        spent(i) += elapsedMs(c0)
      }
    }
    run(WarmupMs, IndexedSeq.fill(n)(null))
    probes.indices.foreach { i =>
      val t0 = System.nanoTime()
      while (next(i) < WarmupCalls && elapsedMs(t0) < WarmupTopUpMs) step(i, null)
      passInfo(s"warmup_calls.${probes(i)._1.name}") = next(i)
    }
    afterWarmup()
    val samples = IndexedSeq.fill(n)(new Samples)
    run(a.seconds * 1e3, samples)
    probes.indices.foreach { i =>
      val name = probes(i)._1.name
      passInfo(s"samples.$name") = samples(i).count
      passInfo(s"passes.$name") = math.round(100.0 * samples(i).count / probes(i)._2.size) / 100.0
    }
    probes.indices.map(i => probes(i)._1.name -> samples(i)).toMap
  }

  /** Quality and exactness checks, outside any timed window: DeepJoin's
    * on the quality queries (each needs an encode), LSH Ensemble's on the
    * whole pool (cheap, and a precision over more queries varies less from
    * seed to seed). Returns the quality queries' embeddings.
    */
  private def qualityChecks(s: Setup, b: Built): IndexedSeq[Array[Float]] = {
    val vectors = (0 until b.index.size).map(b.index.hnsw.vector)
    val qvs = s.queries.map(s.model.embed)
    val exact = s.pool.map(q => q.id -> s.josie.topK(q.cells, K).map(_._1)).toMap
    // DeepJoin.search's own ANN step (Ef > K + 16); its ids give the
    // DeepJoin top-k without encoding each query twice.
    val ann = qvs.map(b.index.hnsw.search(_, K, Ef).map(_._1))
    val recall = s.queries.indices.map { i =>
      val exactNn = BruteForce.search(vectors, qvs(i), K).map(_._1)
      exactNn.count(ann(i).contains).toDouble / exactNn.length
    }
    val lshPrec = s.pool.map { q =>
      val lsh = s.lsh.topK(q.cells, K)
      check("lsh containment in [0,1]")(lsh.forall { case (_, c) => c >= 0 && c <= 1 })
      Metrics.precisionAtK(lsh.map(_._1), exact(q.id), K)
    }
    val djPrec = s.queries.indices.map { i =>
      Metrics.precisionAtK(ann(i).map(b.index.ids(_)).toSeq, exact(s.queries(i).id), K)
    }
    if (!a.trace) {
      metric("dj_recall_at_10", Stats.mean(recall), "ratio")
      metric("dj_precision_at_10", Stats.mean(djPrec), "ratio")
      metric("lsh_precision_at_10", Stats.mean(lshPrec), "ratio")
    }
    // JOSIE and PEXESO against brute force on an evenly spaced sample.
    val sample = (0 until w.exactSample).map(i => s.queries(i * s.queries.size / w.exactSample))
    val repoIds = s.repo.map(_.id)
    sample.foreach { q =>
      check("josie equals brute-force equiJn") {
        sameRanking(s.josie.topK(q.cells, K),
          bruteTopK(repoIds, i => Joinability.equiJn(q.cells, s.repo(i).cells), K))
      }
    }
    val cellVecs = s.repo.map(c => CellEmbedder.default.embedColumn(c.cells))
    sample.foreach { q =>
      check("pexeso equals brute-force semanticJn") {
        val qv = CellEmbedder.default.embedColumn(q.cells)
        sameRanking(s.pexeso.topK(q.cells, Tau, K),
          bruteTopK(repoIds, i => Joinability.semanticJn(qv, cellVecs(i), Tau), K))
      }
    }
    qvs
  }

  private def untracedQueries(s: Setup, b: Built): Unit = {
    qualityChecks(s, b)
    phase("checks")
    val ids = repoIdSet(s)
    val probes = Seq(searchProbe("dj", 0.4, b.index, ids) -> s.pool,
      searchProbe("djgpu", 0.15, b.gpu, ids) -> s.pool) ++ baselineProbes(s)
    val smp = closedLoop(probes)
    metric("dj_query_p50_ms", smp("dj").p(0.50), "ms")
    metric("dj_query_p95_ms", smp("dj").p(0.95), "ms")
    metric("djgpu_query_p50_ms", smp("djgpu").p(0.50), "ms")
    metric("djgpu_query_p95_ms", smp("djgpu").p(0.95), "ms")
    metric("josie_query_p50_ms", smp("josie").p(0.50), "ms")
    metric("lsh_query_p50_ms", smp("lsh").p(0.50), "ms")
    metric("pexeso_query_p50_ms", smp("pexeso").p(0.50), "ms")
  }

  /** Traced run: per round, an untraced DeepJoin.search pass (the baseline
    * of trace.overhead_pct), then one traced request per query with a span
    * around each layer call.
    */
  private def tracedQueries(s: Setup, b: Built): Unit = {
    val qvs = qualityChecks(s, b)
    phase("checks")
    val ids = repoIdSet(s)
    val n = b.index.size
    val vectors = (0 until n).map(b.index.hnsw.vector)
    val queryIndex = s.queries.map(_.id).zipWithIndex.toMap
    val gpuModel = b.gpu.embedder
    val timing = mutable.ArrayBuffer.empty[(Double, Double, Double)] // encode, ann, other
    val cellFlops = queryTokens(s).map(queryFlops(s, _))
    var tracedFlops = 0.0
    val traced = new Probe("traced", 0.7) {
      type R = Boolean
      def call(q: LakeColumn): R = {
        val qi = queryIndex(q.id)
        val qv = qvs(qi)
        tracer.request("query") {
          val ((res, t), ms) = tracer.timed("core.search")(DeepJoin.search(b.traced, q, K, Ef))
          timing += ((t.encodeMs, t.annMs, ms - t.encodeMs - t.annMs))
          val r = tracer.span("text.render")(s.model.ctx.render(q))
          tracer.span("embed.cells")(s.model.encodeCells(r.cells))
          tracedFlops += cellFlops(qi)
          tracer.span("embed.gpu_encode")(gpuModel.embed(q))
          tracer.span("ann.search")(b.index.hnsw.search(qv, K, Ef))
          tracer.span("ann.bruteforce")(BruteForce.search(vectors, qv, K))
          tracer.span("join.josie")(s.josie.topK(q.cells, K))
          val lsh = tracer.span("join.lsh")(s.lsh.topK(q.cells, K))
          if (qi < w.pexesoQueries) tracer.span("join.pexeso")(s.pexeso.topK(q.cells, Tau, K))
          searchOk(res, ids, n) && lsh.forall { case (_, c) => c >= 0 && c <= 1 }
        }
      }
      def ok(q: LakeColumn, r: R): Boolean = r
    }
    val untraced = searchProbe("dj", 0.3, b.index, ids)
    val mark = tracer.size
    // Warm-up requests are dropped; only measured calls stay in the trace.
    val smp = closedLoop(Seq(untraced -> s.queries, traced -> s.queries),
      afterWarmup = () => { tracer.truncate(mark); timing.clear(); tracedFlops = 0.0 })
    val djTraced = Stats.percentile(tracer.durations("core.search"), 0.5)
    metric("trace.overhead_pct", 100.0 * (djTraced / smp("dj").p(0.5) - 1.0), "%")
    metric("core.search_encode_ms_p50", Stats.percentile(timing.map(_._1).toArray, 0.5), "ms")
    metric("core.search_ann_ms_p50", Stats.percentile(timing.map(_._2).toArray, 0.5), "ms")
    metric("core.search_other_ms_p50", Stats.percentile(timing.map(_._3).toArray, 0.5), "ms")
    metric("embed.gflop_per_s", tracedFlops / (tracer.durations("embed.cells").sum * 1e6), "GFLOP/s")
  }

  // ------------------------------------------------------- per-layer metrics

  /** Encoder tokens of each query. */
  private def queryTokens(s: Setup): IndexedSeq[Int] =
    s.queries.map(q => encoderTokens(s.model.ctx.render(q).cells, s.model.ctx.maxTokens))

  /** Transformer-part flops of encoding `tokens` tokens with the model. */
  private def queryFlops(s: Setup, tokens: Int): Double =
    encoderFlops(tokens, s.model.dCell, s.model.cfg.attnLayers, s.model.cfg.ffnLayers)

  private def layerMetrics(s: Setup, b: Built): Unit = {
    def durs(name: String): Array[Double] = tracer.durations(name)
    def p(name: String, q: Double): Double = Stats.percentile(durs(name), q)
    def medianS(name: String): Double = Stats.median(durs(name).toSeq) / 1e3
    val n = s.repo.size

    val generated = n + w.nTrain + s.pool.size
    metric("lake.gen_ms_per_col", Stats.median(durs("lake.gen").toSeq) / generated, "ms")
    metric("lake.cells_per_col", Stats.mean(s.repo.map(_.size.toDouble)), "count")

    val tokens = queryTokens(s)
    metric("text.render_ms_p50", p("text.render", 0.5), "ms")
    metric("text.tokens_per_query", Stats.mean(tokens.map(_.toDouble)), "count")

    val flops = tokens.map(queryFlops(s, _))
    metric("embed.encode_ms_p50", p("embed.encode", 0.5), "ms")
    metric("embed.encode_ms_p95", p("embed.encode", 0.95), "ms")
    metric("embed.cells_ms_p50", p("embed.cells", 0.5), "ms")
    metric("embed.gpu_encode_ms_p50", p("embed.gpu_encode", 0.5), "ms")
    metric("embed.mflop_per_query", Stats.mean(flops) / 1e6, "MFLOP")

    metric("train.fit_s", medianS("train.fit"), "s")
    metric("train.positives", s.positives.toDouble, "count")

    val encAllS = medianS("core.encode_all")
    val buildIdxS = medianS("core.build_index")
    metric("core.encode_all_s", encAllS, "s")
    metric("core.build_index_s", buildIdxS, "s")
    val serialSample = s.repo.take(math.min(n, 50))
    val t0 = System.nanoTime()
    serialSample.foreach(s.model.embed)
    val serialMsPerCol = (System.nanoTime() - t0) / 1e6 / serialSample.size
    metric("core.encode_parallel_eff", serialMsPerCol * n / (encAllS * 1e3 * Threads), "ratio")

    metric("ann.insert_ms_per_vec", buildIdxS * 1e3 / n, "ms")
    metric("ann.search_ms_p50", p("ann.search", 0.5), "ms")
    metric("ann.search_ms_p95", p("ann.search", 0.95), "ms")
    metric("ann.bruteforce_ms_p50", p("ann.bruteforce", 0.5), "ms")
    metric("ann.speedup_vs_bruteforce", p("ann.bruteforce", 0.5) / p("ann.search", 0.5), "x")
    val hnsw = b.index.hnsw
    metric("ann.l0_degree_mean", Stats.mean((0 until n).map(i => hnsw.neighbors(i, 0).length.toDouble)), "count")
    metric("ann.nodes_above_l0", (0 until n).count(i => hnsw.neighbors(i, 1).nonEmpty).toDouble, "count")

    metric("join.josie_build_s", medianS("join.josie_build"), "s")
    metric("join.lsh_build_s", medianS("join.lsh_build"), "s")
    metric("join.pexeso_build_s", medianS("join.pexeso_build"), "s")
    metric("join.josie_ms_p95", p("join.josie", 0.95), "ms")
    metric("join.lsh_ms_p95", p("join.lsh", 0.95), "ms")
    metric("join.pexeso_ms_p95", p("join.pexeso", 0.95), "ms")
  }

  private def writeTrace(): Unit = {
    val f = new java.io.PrintWriter(a.traceOut, "UTF-8")
    try Tracer.toJsonLines(tracer.spans).foreach(f.println) finally f.close()
  }

  // ------------------------------------------------------------ environment

  private def gcTotals(): (Long, Long) = {
    import scala.jdk.CollectionConverters._
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  private def env(s: Setup, setupS: Seq[Double]): Map[String, Any] = {
    import scala.jdk.CollectionConverters._
    Map(
      "workload" -> w.name,
      "seed" -> a.seed,
      "trace" -> a.trace,
      "seconds" -> a.seconds,
      "available_processors" -> Runtime.getRuntime.availableProcessors,
      "spark_master" -> s"local[$Threads]",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","),
      "repository_columns" -> s.repo.size,
      "query_columns" -> s.queries.size,
      "timed_query_pool" -> s.pool.size,
      "train_columns" -> w.nTrain,
      "k" -> K,
      "setup_reps_s" -> setupS,
      "build_reps_s" -> buildS.toSeq) ++ passInfo
  }
}

/** Minimal JSON writer for the result file. */
object Json {
  def write(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => write(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => write(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(write).mkString("[", ",", "]")
    case other => write(other.toString)
  }
}
