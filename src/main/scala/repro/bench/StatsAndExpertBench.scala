package repro.bench

import org.apache.spark.sql.SparkSession
import repro.embed.PlmConfig
import repro.eval.Metrics
import repro.lake.{LakeColumn, LakeConfig}

/** Table 2 (dataset statistics) and Table 7 (expert-labeled accuracy). */
object StatsAndExpertBench {

  /** Table 2: corpus statistics at reproduction scale. */
  def table2(spark: SparkSession): Unit = {
    println(s"== Table 2: dataset statistics (scale: train=${World.trainN}, " +
      s"test=${World.repoN}; paper: 30K / 1M)")
    println(f"${"dataset"}%-16s ${"|X|"}%8s ${"max|X|"}%8s ${"min|X|"}%8s ${"avg|X|"}%8s  positives(equi, semantic tau=0.9)")
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val c = World.corpus(spark, cfg)
      def stats(cols: Seq[LakeColumn]): (Int, Int, Int, Double) =
        (cols.size, cols.map(_.size).max, cols.map(_.size).min,
          cols.map(_.size).sum.toDouble / cols.size)
      val (n, mx, mn, avg) = stats(c.train)
      val eq = World.positives(spark, c, Equi).size
      val sem = World.positives(spark, c, Semantic(0.9)).size
      println(f"${cfg.name + "-train"}%-16s $n%8d $mx%8d $mn%8d $avg%8.2f  $eq (equi), $sem (semantic)")
      val (n2, mx2, mn2, avg2) = stats(c.repo)
      println(f"${cfg.name + "-test"}%-16s $n2%8d $mx2%8d $mn2%8d $avg2%8.2f  N/A")
    }
  }

  /** Latent-entity joinability: the "expert judgement" stand-in (a third
    * notion of match, distinct from string equality and from a fixed
    * embedding-distance threshold — see DESIGN.md).
    */
  def entityJn(q: LakeColumn, x: LakeColumn): Double = {
    val qEnts = q.entities.filter(_ >= 0)
    if (qEnts.isEmpty) return 0.0
    val xs = x.entities.filter(_ >= 0).toSet
    qEnts.count(xs.contains).toDouble / qEnts.size
  }

  /** Table 7's cut-off k, semantic threshold τ, and the entity joinability
    * at which the "experts" call a column joinable.
    */
  private val k = 10
  private val tau = 0.9
  private val joinableThreshold = 0.5

  /** Table 7: pooled precision/recall/F1 against expert (entity) labels. */
  def table7(spark: SparkSession): Unit = {
    println(s"== Table 7: semantic joins labeled by 'experts' (latent entity " +
      s"joinability >= $joinableThreshold), k=$k, tau=$tau")
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val c = World.corpus(spark, cfg)
      // The top k of Tables 4–6's memoized top-kMax retrievals and labels.
      def top(res: Map[Long, Seq[Long]]) = res.map { case (q, ids) => q -> ids.take(k) }
      val kMax = AccuracyBench.kMax
      val methods: Seq[(String, Map[Long, Seq[Long]])] = Seq(
        "LSH Ensemble" -> top(AccuracyBench.retrieveLsh(c, kMax)),
        "fastText" -> top(AccuracyBench.retrieve(spark, c, World.fastText, kMax)),
        "PEXESO" -> top(World.exact(c, Semantic(tau), kMax).map { case (q, r) => q -> r.map(_._1) }),
        "DeepJoin-MPNet" -> top(AccuracyBench.retrieve(spark, c,
          World.trainDeepJoin(spark, c, Semantic(tau), PlmConfig.mpnet), kMax)),
      )
      // Retrieved pool per query = union over methods (the paper's protocol
      // for making expert labeling tractable).
      val pools: Map[Long, Set[Long]] = c.queries.map { q =>
        q.id -> methods.flatMap(_._2.getOrElse(q.id, Seq.empty)).toSet
      }.toMap
      println(s"-- ${cfg.name}: precision / recall / F1")
      methods.foreach { case (name, res) =>
        val perQuery = c.queries.map(q => (res.getOrElse(q.id, Seq.empty), pools(q.id)))
        val queriesArr = c.queries.toIndexedSeq
        val (p, r, f1) = Metrics.pooledPrfMicro(perQuery, (qi, id) =>
          entityJn(queriesArr(qi), c.repoById(id)) >= joinableThreshold)
        println(f"$name%-22s $p%.3f / $r%.3f / $f1%.3f")
      }
    }
  }
}
