package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed._
import repro.join.{Josie, LshEnsemble, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}

/** Efficiency experiments: Tables 13–15 of the paper.
  *
  * End-to-end per-query processing time (column-to-text transformation +
  * query encoding + ANN search for the embedding methods; index probing for
  * JOSIE / LSH Ensemble / PEXESO). "DeepJoin (GPU)" is the same encoder with
  * its per-token inner loops run data-parallel across cores — the stand-in
  * for GPU-accelerated query encoding (ANN is unchanged), see DESIGN.md.
  *
  * Repository sizes are the paper's scaled by ~1/50: webtable 20K..100K
  * (paper 1M..5M), wikitable 4K..20K (paper 200K..1M). Smaller repositories
  * are prefixes of the largest one, so each sweep generates data once, and
  * HNSW indexes are memoized per (corpus, size, embedder) — CPU and GPU-sim
  * rows share the same index, as they do in the paper. Repositories,
  * embeddings and indexes live in [[World.memo]], shared across Tables
  * 13/14/15 (the suites run in one JVM).
  */
object TimingBench {

  def repoFor(spark: SparkSession, cfg: LakeConfig, n: Int): Seq[LakeColumn] =
    World.memo(("timingRepo", cfg, n)) {
      LakeGenerator.columns(spark, cfg, n).collect().toSeq.sortBy(_.id)
    }

  /** Embeddings of [[repoFor]]`(cfg, n)` by the named embedder. */
  def embFor(spark: SparkSession, cfg: LakeConfig, n: Int,
             name: String, emb: ColumnEmbedder): Array[(Long, Array[Float])] =
    World.memo(("embeddings", cfg, n, name)) {
      import spark.implicits._
      DeepJoin.encodeAll(spark, spark.createDataset(repoFor(spark, cfg, n)), emb)
    }

  /** A per-query timed runner: returns (encodeMs, totalMs). */
  trait Runner { def run(q: LakeColumn, k: Int): (Double, Double) }

  private def timeMs[A](f: => A): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }

  final class JosieRunner(repo: Seq[LakeColumn]) extends Runner {
    val idx: Josie = Josie.build(repo.map(c => (c.id, c.cells)))
    def run(q: LakeColumn, k: Int): (Double, Double) = (0.0, timeMs(idx.topK(q.cells, k)))
  }

  final class LshRunner(repo: Seq[LakeColumn]) extends Runner {
    val idx: LshEnsemble = LshEnsemble.build(repo.map(c => (c.id, c.cells)))
    def run(q: LakeColumn, k: Int): (Double, Double) = (0.0, timeMs(idx.topK(q.cells, k)))
  }

  final class PexesoRunner(repo: Seq[LakeColumn], tau: Double) extends Runner {
    val idx: Pexeso = Pexeso.build(repo.map(c => (c.id, c.cells)))
    def run(q: LakeColumn, k: Int): (Double, Double) = (0.0, timeMs(idx.topK(q.cells, tau, k)))
  }

  /** HNSW index over a prefix of memoized embeddings (built once per
    * (corpus, size, embedder); lighter construction parameters than the
    * accuracy benches — this table measures time, not recall).
    */
  def indexFor(cfg: LakeConfig, embName: String, n: Int,
               embeddings: Array[(Long, Array[Float])],
               embedder: ColumnEmbedder): DeepJoinIndex =
    World.memo(("timingIndex", cfg, n, embName)) {
      DeepJoin.buildIndex(embeddings.take(n), embedder, m = 12, efConstruction = 64)
    }

  /** Embedding-based runner: `DeepJoin.search` over a (memoized) HNSW index.
    * The query embedder may differ from the one that built the index (CPU
    * vs GPU-sim rows share one graph and id mapping).
    */
  final class SearchRunner(idx: DeepJoinIndex, queryEmbedder: ColumnEmbedder) extends Runner {
    private val index = new DeepJoinIndex(idx.hnsw, idx.ids, queryEmbedder)
    def run(q: LakeColumn, k: Int): (Double, Double) = {
      val (_, t) = DeepJoin.search(index, q, k)
      (t.encodeMs, t.totalMs)
    }
  }

  /** Mean (encodeMs, totalMs) over the query workload, after 3 warm-up
    * queries.
    */
  def measure(runner: Runner, queries: Seq[LakeColumn], k: Int): (Double, Double) = {
    queries.take(3).foreach(runner.run(_, k))
    val times = queries.map(runner.run(_, k))
    (times.map(_._1).sum / times.size, times.map(_._2).sum / times.size)
  }

  /** Sweep sizes for a corpus (scaled ~1/50 from the paper's 1M..5M and
    * 200K..1M — large enough that the linear growth of JOSIE / LSH Ensemble
    * / PEXESO vs the flat DeepJoin curve is clearly visible).
    */
  def sizesFor(cfgName: String): Seq[Int] = {
    val base = if (cfgName == "webtable") Seq(20000, 40000, 60000, 80000, 100000)
               else Seq(4000, 8000, 12000, 16000, 20000)
    base.map(n => math.max(1000, (n * World.scale).toInt))
  }

  /** DeepJoin embedders (CPU and GPU-sim) for timing, trained at accuracy
    * scale and reused across repository sizes (as the paper trains once).
    */
  private def deepJoinEmbedders(spark: SparkSession, cfg: LakeConfig,
                                jt: JoinType): (PlmEmbedder, PlmEmbedder) = {
    val c = World.corpus(spark, cfg)
    val cpu = World.trainDeepJoin(spark, c, jt, PlmConfig.mpnet)
    val gpu = new PlmEmbedder(cpu.cfg, cpu.ctx, cpu.head, parallel = true,
      idfPooling = cpu.idfPooling)
    (cpu, gpu)
  }

  /** Table 13: time per query vs repository size, k = 10. */
  def table13(spark: SparkSession): Unit = {
    val k = 10
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val sizes = sizesFor(cfg.name)
      println(s"== Table 13 (${cfg.name}): ms/query vs |X| = ${sizes.mkString(",")} " +
        s"(paper: ${if (cfg.name == "webtable") "1M..5M" else "200K..1M"}), k=$k")
      val queries = LakeGenerator.queriesLocal(cfg, 10)
      val repoAll = repoFor(spark, cfg, sizes.max)

      val (djCpu, djGpu) = deepJoinEmbedders(spark, cfg, Equi)
      val ft = new FastTextEmbedder()
      val ftEmbAll = embFor(spark, cfg, sizes.max, "fastText", ft)
      val djEmbAll = embFor(spark, cfg, sizes.max, "dj-equi", djCpu)

      def row(name: String, mk: Seq[LakeColumn] => Runner): Unit = {
        val cells = sizes.map(n => measure(mk(repoAll.take(n)), queries, k))
        val encStr = f"${cells.head._1}%8.2f"
        println(f"$name%-18s enc=$encStr  total=${cells.map(c => f"${c._2}%8.2f").mkString(" ")}")
      }

      println(s"-- equi-joins")
      row("LSH Ensemble", repo => new LshRunner(repo))
      row("JOSIE", repo => new JosieRunner(repo))
      row("fastText", repo =>
        new SearchRunner(indexFor(cfg, "fastText", repo.size, ftEmbAll, ft), ft))
      row("DeepJoin (CPU)", repo =>
        new SearchRunner(indexFor(cfg, "dj-equi", repo.size, djEmbAll, djCpu), djCpu))
      row("DeepJoin (GPU)", repo =>
        new SearchRunner(indexFor(cfg, "dj-equi", repo.size, djEmbAll, djCpu), djGpu))

      println(s"-- semantic joins (tau=0.9)")
      val (djCpuS, djGpuS) = deepJoinEmbedders(spark, cfg, Semantic(0.9))
      val djEmbAllS = embFor(spark, cfg, sizes.max, "dj-sem", djCpuS)
      row("PEXESO", repo => new PexesoRunner(repo, 0.9))
      row("DeepJoin (CPU)", repo =>
        new SearchRunner(indexFor(cfg, "dj-sem", repo.size, djEmbAllS, djCpuS), djCpuS))
      row("DeepJoin (GPU)", repo =>
        new SearchRunner(indexFor(cfg, "dj-sem", repo.size, djEmbAllS, djCpuS), djGpuS))
    }
  }

  /** Table 14: time per query vs k at the largest sweep size. */
  def table14(spark: SparkSession): Unit = {
    val ksSweep = Seq(10, 20, 30, 40, 50)
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val n = sizesFor(cfg.name).max
      println(s"== Table 14 (${cfg.name}): ms/query vs k = ${ksSweep.mkString(",")}, |X|=$n")
      val queries = LakeGenerator.queriesLocal(cfg, 10)
      val repo = repoFor(spark, cfg, n)
      val (djCpu, djGpu) = deepJoinEmbedders(spark, cfg, Equi)
      val ft = new FastTextEmbedder()
      val ftEmb = embFor(spark, cfg, n, "fastText", ft)
      val djEmb = embFor(spark, cfg, n, "dj-equi", djCpu)

      def row(name: String, runner: Runner): Unit = {
        val t = ksSweep.map(k => measure(runner, queries, k)._2)
        println(f"$name%-18s ${t.map(x => f"$x%8.2f").mkString(" ")}")
      }
      println(s"-- equi-joins")
      row("LSH Ensemble", new LshRunner(repo))
      row("JOSIE", new JosieRunner(repo))
      row("fastText", new SearchRunner(indexFor(cfg, "fastText", n, ftEmb, ft), ft))
      val djIdx = indexFor(cfg, "dj-equi", n, djEmb, djCpu)
      row("DeepJoin (CPU)", new SearchRunner(djIdx, djCpu))
      row("DeepJoin (GPU)", new SearchRunner(djIdx, djGpu))

      println(s"-- semantic joins (tau=0.9)")
      val (djCpuS, djGpuS) = deepJoinEmbedders(spark, cfg, Semantic(0.9))
      val djEmbS = embFor(spark, cfg, n, "dj-sem", djCpuS)
      row("PEXESO", new PexesoRunner(repo, 0.9))
      val djIdxS = indexFor(cfg, "dj-sem", n, djEmbS, djCpuS)
      row("DeepJoin (CPU)", new SearchRunner(djIdxS, djCpuS))
      row("DeepJoin (GPU)", new SearchRunner(djIdxS, djGpuS))
    }
  }

  /** Table 15: time per query vs column size band (webtable), k = 10. */
  def table15(spark: SparkSession): Unit = {
    val cfg = LakeConfig.webtable()
    val k = 10
    val nPerBand = math.max(2000, (20000 * World.scale).toInt)
    println(s"== Table 15 (webtable): ms/query vs column size, $nPerBand columns " +
      s"per band (paper: 300K), k=$k")
    val (djCpu, djGpu) = deepJoinEmbedders(spark, cfg, Equi)
    val (djCpuS, djGpuS) = deepJoinEmbedders(spark, cfg, Semantic(0.9))
    val ft = new FastTextEmbedder()
    AccuracyBench.bands.zipWithIndex.foreach { case ((label, lo, hi), bi) =>
      val hiCap = if (hi == Int.MaxValue) cfg.maxCells else hi
      val repoDs = LakeGenerator.columnsInSizeBand(spark, cfg, nPerBand, lo, hiCap,
        salt = 0xf15L + bi).cache()
      val repo = repoDs.collect().toSeq.sortBy(_.id)
      val queries = LakeGenerator.queriesInSizeBandLocal(cfg, 10, lo, hiCap)
      val ftEmb = DeepJoin.encodeAll(spark, repoDs, ft)
      val djEmb = DeepJoin.encodeAll(spark, repoDs, djCpu)
      val djEmbS = DeepJoin.encodeAll(spark, repoDs, djCpuS)

      println(s"-- |Q|,|X| in $label")
      def row(name: String, runner: Runner): Unit = {
        val (enc, tot) = measure(runner, queries, k)
        println(f"$name%-18s enc=$enc%8.2f total=$tot%8.2f")
      }
      row("LSH Ensemble", new LshRunner(repo))
      row("JOSIE", new JosieRunner(repo))
      row("fastText", new SearchRunner(
        indexFor(cfg, s"b$bi-fastText", repo.size, ftEmb, ft), ft))
      val djIdx = indexFor(cfg, s"b$bi-dj-equi", repo.size, djEmb, djCpu)
      row("DeepJoin (CPU)", new SearchRunner(djIdx, djCpu))
      row("DeepJoin (GPU)", new SearchRunner(djIdx, djGpu))
      row("PEXESO", new PexesoRunner(repo, 0.9))
      val djIdxS = indexFor(cfg, s"b$bi-dj-sem", repo.size, djEmbS, djCpuS)
      row("DeepJoin-sem (CPU)", new SearchRunner(djIdxS, djCpuS))
      row("DeepJoin-sem (GPU)", new SearchRunner(djIdxS, djGpuS))
    }
  }
}
