package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed._
import repro.join.{Josie, LshEnsemble, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import scala.collection.mutable

/** Efficiency experiments: Tables 13–15 of the paper.
  *
  * End-to-end per-query processing time (column-to-text transformation +
  * query encoding + ANN search for the embedding methods; index probing for
  * JOSIE / LSH Ensemble / PEXESO). "DeepJoin (GPU)" is the same encoder with
  * its per-token inner loops run data-parallel across cores — the stand-in
  * for GPU-accelerated query encoding (ANN is unchanged), see DESIGN.md.
  *
  * The three tables time one method list ([[methods]]) and differ only in
  * what they sweep (|X|, k, column size) and how they print a row.
  * Repository sizes are the paper's scaled by ~1/50: webtable 20K..100K
  * (paper 1M..5M), wikitable 4K..20K (paper 200K..1M). Smaller repositories
  * are prefixes of the largest one, so each sweep generates and encodes data
  * once. Repositories, embeddings and HNSW indexes live in [[World.memo]],
  * keyed by (config, size, embedder instance) and shared by Tables 13 and 14
  * (the suites run in one JVM); CPU and GPU-sim rows share the CPU model's
  * index, as they do in the paper. Table 15's band indexes live only for
  * their band.
  */
object TimingBench {

  def repoFor(spark: SparkSession, cfg: LakeConfig, n: Int): Seq[LakeColumn] =
    World.memo(("timingRepo", cfg, n)) {
      LakeGenerator.columns(spark, cfg, n).collect().toSeq.sortBy(_.id)
    }

  /** Embeddings of [[repoFor]]`(cfg, n)` by `emb`. */
  def embFor(spark: SparkSession, cfg: LakeConfig, n: Int,
             emb: ColumnEmbedder): Array[(Long, Array[Float])] =
    World.memo(("embeddings", cfg, n, emb)) {
      import spark.implicits._
      DeepJoin.encodeAll(spark, spark.createDataset(repoFor(spark, cfg, n)), emb)
    }

  /** HNSW index of `emb` over [[repoFor]]`(cfg, n)`, from a prefix of the
    * largest sweep size's embeddings, with lighter construction parameters
    * than the accuracy benches (these tables measure time, not recall).
    */
  def indexFor(spark: SparkSession, cfg: LakeConfig, n: Int,
               emb: ColumnEmbedder): DeepJoinIndex =
    World.memo(("timingIndex", cfg, n, emb)) {
      timingIndex(embFor(spark, cfg, sizesFor(cfg.name).max, emb).take(n), emb)
    }

  private def timingIndex(embeddings: Array[(Long, Array[Float])], emb: ColumnEmbedder) =
    DeepJoin.buildIndex(embeddings, emb, m = 12, efConstruction = 64)

  /** A repository to time: its columns, and an embedder's HNSW index over them. */
  private final case class Repo(cols: Seq[LakeColumn], index: ColumnEmbedder => DeepJoinIndex)

  /** A timed query: (encodeMs, totalMs) of one top-k call. */
  type Probe = (LakeColumn, Int) => (Double, Double)

  /** One row of Tables 13–15: its join type (section), its label, and its
    * probe over a repository (index construction is not timed).
    */
  private final case class Method(jt: JoinType, label: String, probe: Repo => Probe)

  private def timeMs[A](f: => A): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }

  /** A baseline's probe: its index over the repository's cells. */
  private def cellIndex[I](build: Seq[(Long, Seq[String])] => I)
                          (topK: (I, Seq[String], Int) => Any): Repo => Probe = { repo =>
    val idx = build(repo.cols.map(c => (c.id, c.cells)))
    (q, k) => (0.0, timeMs(topK(idx, q.cells, k)))
  }

  /** `DeepJoin.search` over `indexEmb`'s index, encoding queries with
    * `queryEmb` (GPU-sim rows search the CPU model's graph).
    */
  private def search(indexEmb: ColumnEmbedder, queryEmb: ColumnEmbedder): Repo => Probe = { repo =>
    val idx = repo.index(indexEmb)
    val index = new DeepJoinIndex(idx.hnsw, idx.ids, queryEmb)
    (q, k) => { val t = DeepJoin.search(index, q, k)._2; (t.encodeMs, t.totalMs) }
  }

  /** Semantic threshold of every semantic row. */
  private val tau = 0.9

  /** The methods of Tables 13–15, in row order. DeepJoin (MPNet) is trained
    * once per corpus at accuracy scale and reused across repositories (as
    * the paper trains once).
    */
  private def methods(spark: SparkSession, cfg: LakeConfig): Seq[Method] = {
    val c = World.corpus(spark, cfg)
    def deepJoin(jt: JoinType): Seq[Method] = {
      val cpu = World.trainDeepJoin(spark, c, jt, PlmConfig.mpnet)
      val gpu = new PlmEmbedder(cpu.cfg, cpu.ctx, cpu.head, parallel = true,
        idfPooling = cpu.idfPooling)
      Seq(Method(jt, "DeepJoin (CPU)", search(cpu, cpu)),
        Method(jt, "DeepJoin (GPU)", search(cpu, gpu)))
    }
    Seq(
      Method(Equi, "LSH Ensemble", cellIndex(LshEnsemble.build)(_.topK(_, _))),
      Method(Equi, "JOSIE", cellIndex(Josie.build)(_.topK(_, _))),
      Method(Equi, "fastText", search(World.fastText, World.fastText)),
    ) ++ deepJoin(Equi) ++
      (Method(Semantic(tau), "PEXESO", cellIndex(Pexeso.build)(_.topK(_, tau, _))) +:
        deepJoin(Semantic(tau)))
  }

  /** Mean (encodeMs, totalMs) over the query workload, after 3 warm-up
    * queries.
    */
  def measure(probe: Probe, queries: Seq[LakeColumn], k: Int): (Double, Double) = {
    queries.take(3).foreach(probe(_, k))
    val times = queries.map(probe(_, k))
    (times.map(_._1).sum / times.size, times.map(_._2).sum / times.size)
  }

  /** Prints Tables 13–14's section headers, with each section's rows. */
  private def bySection(ms: Seq[Method])(row: Method => Unit): Unit =
    ms.map(_.jt).distinct.foreach { jt =>
      println(jt match {
        case Equi => "-- equi-joins"
        case Semantic(t) => s"-- semantic joins (tau=$t)"
      })
      ms.filter(_.jt == jt).foreach(row)
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

  /** The first `n` columns of the largest sweep repository. */
  private def prefix(spark: SparkSession, cfg: LakeConfig, n: Int): Repo =
    Repo(repoFor(spark, cfg, sizesFor(cfg.name).max).take(n),
      emb => indexFor(spark, cfg, n, emb))

  /** Table 13: time per query vs repository size, k = 10. */
  def table13(spark: SparkSession): Unit = {
    val k = 10
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val sizes = sizesFor(cfg.name)
      println(s"== Table 13 (${cfg.name}): ms/query vs |X| = ${sizes.mkString(",")} " +
        s"(paper: ${if (cfg.name == "webtable") "1M..5M" else "200K..1M"}), k=$k")
      val queries = LakeGenerator.queriesLocal(cfg, 10)
      val repos = sizes.map(prefix(spark, cfg, _))
      bySection(methods(spark, cfg)) { m =>
        val cells = repos.map(r => measure(m.probe(r), queries, k))
        val encStr = f"${cells.head._1}%8.2f"
        println(f"${m.label}%-18s enc=$encStr  total=${cells.map(c => f"${c._2}%8.2f").mkString(" ")}")
      }
    }
  }

  /** Table 14: time per query vs k at the largest sweep size. */
  def table14(spark: SparkSession): Unit = {
    val ksSweep = Seq(10, 20, 30, 40, 50)
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val n = sizesFor(cfg.name).max
      println(s"== Table 14 (${cfg.name}): ms/query vs k = ${ksSweep.mkString(",")}, |X|=$n")
      val queries = LakeGenerator.queriesLocal(cfg, 10)
      val repo = prefix(spark, cfg, n)
      bySection(methods(spark, cfg)) { m =>
        val probe = m.probe(repo)
        val t = ksSweep.map(k => measure(probe, queries, k)._2)
        println(f"${m.label}%-18s ${t.map(x => f"$x%8.2f").mkString(" ")}")
      }
    }
  }

  /** Table 15: time per query vs column size band (webtable), k = 10. */
  def table15(spark: SparkSession): Unit = {
    val cfg = LakeConfig.webtable()
    val k = 10
    val nPerBand = math.max(2000, (20000 * World.scale).toInt)
    println(s"== Table 15 (webtable): ms/query vs column size, $nPerBand columns " +
      s"per band (paper: 300K), k=$k")
    val ms = methods(spark, cfg)
    AccuracyBench.bands.zipWithIndex.foreach { case ((label, lo, hi), bi) =>
      val hiCap = if (hi == Int.MaxValue) cfg.maxCells else hi
      val repoDs = LakeGenerator.columnsInSizeBand(spark, cfg, nPerBand, lo, hiCap,
        salt = 0xf15L + bi).cache()
      val queries = LakeGenerator.queriesInSizeBandLocal(cfg, 10, lo, hiCap)
      val indexes = mutable.Map.empty[ColumnEmbedder, DeepJoinIndex]
      val repo = Repo(repoDs.collect().toSeq.sortBy(_.id), emb =>
        indexes.getOrElseUpdate(emb, timingIndex(DeepJoin.encodeAll(spark, repoDs, emb), emb)))

      println(s"-- |Q|,|X| in $label")
      ms.foreach { m =>
        val (enc, tot) = measure(m.probe(repo), queries, k)
        val name = if (m.jt == Equi) m.label else m.label.replace("DeepJoin", "DeepJoin-sem")
        println(f"$name%-18s enc=$enc%8.2f total=$tot%8.2f")
      }
    }
  }
}
