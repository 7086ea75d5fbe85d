package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.DeepJoin
import repro.embed._
import repro.join.LshEnsemble
import repro.lake.{LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}

/** Accuracy experiments: Tables 3–12 of the paper.
  *
  * All methods share the retrieval protocol of Section 5.1: embedding
  * methods answer from an HNSW index over the repository, LSH Ensemble from
  * its partitioned MinHash structure, and precision@k / NDCG@k are computed
  * against the exact top-k ([[World.exact]]: JOSIE for equi-joins, PEXESO
  * for semantic joins).
  */
object AccuracyBench {

  val ks: Seq[Int] = Seq(10, 20, 30, 40, 50)
  val kMax: Int = ks.max

  // ------------------------------------------------------------- retrieval

  /** Retrieve top-k ids per query with an embedder (memoized by corpus,
    * embedder instance and k: trained models and raw PLM baselines are
    * [[World.memo]] singletons, and fastText and TaBERT are [[World.fastText]]
    * and [[World.tabert]], so every table that asks for one of them on a
    * corpus shares one retrieval).
    */
  def retrieve(spark: SparkSession, c: World.Corpus,
               emb: ColumnEmbedder, k: Int): Map[Long, Seq[Long]] =
    World.memo(("retrieval", c, emb, k)) {
      World.retrieveAll(DeepJoin.buildIndex(spark, c.repoDs, emb), c.queries, k)
    }

  /** LSH Ensemble retrieval (memoized). */
  def retrieveLsh(c: World.Corpus, k: Int): Map[Long, Seq[Long]] =
    World.memo(("lshRetrieval", c, k)) {
      val lsh = LshEnsemble.build(c.repo.map(col => (col.id, col.cells)))
      c.queries.map(q => q.id -> lsh.topK(q.cells, k).map(_._1)).toMap
    }

  // --------------------------------------------------------- method suites

  /** A PLM baseline without fine-tuning (cells-only `col` text, mean
    * pooling), one instance per corpus and model so that every table that
    * asks for it on `c` shares one retrieval.
    */
  private def rawPlm(c: World.Corpus, plm: PlmConfig): PlmEmbedder =
    World.memo(("rawPlm", c, plm)) {
      new PlmEmbedder(plm, new Contextualizer(TextOption.Col, frequency = c.cellFrequency))
    }

  /** The methods of Table 3 (equi-joins): name -> top-k retrieval over
    * `c`'s repository; the trained methods learn on `train`.
    */
  def equiMethods(spark: SparkSession, c: World.Corpus, train: World.Corpus,
                  k: Int): Seq[(String, Map[Long, Seq[Long]])] = {
    Seq(
      "LSH Ensemble" -> retrieveLsh(c, k),
      "fastText" -> retrieve(spark, c, World.fastText, k),
      "BERT" -> retrieve(spark, c, rawPlm(c, PlmConfig.bert), k),
      "MPNet" -> retrieve(spark, c, rawPlm(c, PlmConfig.mpnet), k),
      "TaBERT" -> retrieve(spark, c, World.tabert, k),
      "MLP" -> retrieve(spark, c, World.trainMlp(spark, train), k),
      "DeepJoin-DistilBERT" -> retrieve(spark, c,
        World.trainDeepJoin(spark, train, Equi, PlmConfig.distilbert), k),
      "DeepJoin-MPNet" -> retrieve(spark, c,
        World.trainDeepJoin(spark, train, Equi, PlmConfig.mpnet), k),
    )
  }

  /** The methods of Tables 4–6 (semantic joins at threshold τ), as
    * [[equiMethods]].
    */
  def semanticMethods(spark: SparkSession, c: World.Corpus, train: World.Corpus,
                      tau: Double, k: Int): Seq[(String, Map[Long, Seq[Long]])] =
    Seq(
      "LSH Ensemble" -> retrieveLsh(c, k),
      "fastText" -> retrieve(spark, c, World.fastText, k),
      "DeepJoin-DistilBERT" -> retrieve(spark, c,
        World.trainDeepJoin(spark, train, Semantic(tau), PlmConfig.distilbert), k),
      "DeepJoin-MPNet" -> retrieve(spark, c,
        World.trainDeepJoin(spark, train, Semantic(tau), PlmConfig.mpnet), k),
    )

  // -------------------------------------------------------------- printing

  /** Mean precision@k and NDCG@k for every k in `ks`, of one retrieval
    * against `c`'s exact top-`ks.max` under `jt`.
    */
  private def evaluate(c: World.Corpus, jt: JoinType, res: Map[Long, Seq[Long]],
                       ks: Seq[Int]): Map[Int, (Double, Double)] =
    World.evalRetrieval(c, res, World.exact(c, jt, ks.max), ks, World.jnLookup(c, jt))

  /** precision@k for every k, then NDCG@k: "p@10 .. p@50 | ndcg@10 .. ndcg@50". */
  private def scores(c: World.Corpus, jt: JoinType, res: Map[Long, Seq[Long]]): String = {
    val m = evaluate(c, jt, res, ks)
    ks.map(k => f"${m(k)._1}%.3f").mkString(" ") + " | " +
      ks.map(k => f"${m(k)._2}%.3f").mkString(" ")
  }

  /** Evaluate methods and print one corpus block of an accuracy table. */
  def printBlock(c: World.Corpus, jt: JoinType,
                 methods: Seq[(String, Map[Long, Seq[Long]])]): Unit = {
    println(s"-- ${c.cfg.name}, ${jt.label}: precision@k | ndcg@k, k=${ks.mkString(",")}")
    methods.foreach { case (name, res) => println(f"$name%-22s ${scores(c, jt, res)}") }
  }

  /** Table 3: equi-join accuracy on both corpora. */
  def table3(spark: SparkSession): Unit = {
    println(s"== Table 3: accuracy of equi-joins (scale: repo=${World.repoN}, " +
      s"train=${World.trainN}, queries=${World.queryN}; paper: 1M/30K/50)")
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val c = World.corpus(spark, cfg)
      printBlock(c, Equi, equiMethods(spark, c, c, kMax))
    }
  }

  /** Tables 4–6: semantic-join accuracy at τ ∈ {0.9, 0.8, 0.7}. */
  def tables4to6(spark: SparkSession): Unit =
    Seq(0.9, 0.8, 0.7).zip(Seq(4, 5, 6)).foreach { case (tau, t) =>
      println(s"== Table $t: accuracy of semantic joins, tau=$tau " +
        s"(scale: repo=${World.repoN}, train=${World.trainN}, queries=${World.queryN})")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        printBlock(c, Semantic(tau), semanticMethods(spark, c, c, tau, kMax))
      }
    }

  // ------------------------------------------------- Table 8 (column size)

  /** Size bands of Table 8 / Table 15. */
  val bands: Seq[(String, Int, Int)] = Seq(("5-10", 5, 10), ("11-50", 11, 50), (">50", 51, Int.MaxValue))

  /** Table 8: accuracy at k=10 per column-size band (Webtable), with the
    * methods of Tables 3–6 trained on the full corpus and searching the
    * band's repository.
    */
  def table8(spark: SparkSession): Unit = {
    val cfg = LakeConfig.webtable()
    val k = 10
    val tau = 0.9
    val nPerBand = math.max(600, World.repoN / 3)
    println(s"== Table 8: accuracy vs column size, webtable, k=$k " +
      s"(repo=$nPerBand per band; paper: grouped 1M)")
    val full = World.corpus(spark, cfg)
    bands.zipWithIndex.foreach { case ((label, lo, hi), bi) =>
      val hiCap = if (hi == Int.MaxValue) cfg.maxCells else hi
      val repoDs = LakeGenerator.columnsInSizeBand(spark, cfg, nPerBand, lo, hiCap,
        salt = 0x8a0L + bi).cache()
      val queries = LakeGenerator.queriesInSizeBandLocal(cfg, World.queryN, lo, hiCap)
      val c = World.Corpus(cfg, repoDs.collect().toSeq.sortBy(_.id), full.train, queries,
        repoDs, full.trainDs)
      def block(title: String, jt: JoinType, methods: Seq[(String, Map[Long, Seq[Long]])]): Unit = {
        println(s"-- $title, |X| = $label")
        methods.foreach { case (name, res) =>
          val (p, ndcg) = evaluate(c, jt, res, Seq(k))(k)
          println(f"$name%-22s P@$k=$p%.3f NDCG@$k=$ndcg%.3f")
        }
      }
      block("equi", Equi, equiMethods(spark, c, full, k))
      block(s"semantic (tau=$tau)", Semantic(tau), semanticMethods(spark, c, full, tau, k))
    }
  }

  // --------------------------------------------- Tables 9-10 (text options)

  /** Tables 9–10: contextualization ablation with DeepJoin-MPNet. */
  def tables9to10(spark: SparkSession): Unit =
    Seq[(JoinType, Int)]((Equi, 9), (Semantic(0.9), 10)).foreach { case (jt, t) =>
      println(s"== Table $t: column-to-text transformation, ${jt.label}, DeepJoin-MPNet")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        println(s"-- ${cfg.name}: precision@k | ndcg@k, k=${ks.mkString(",")}")
        TextOption.all.foreach { opt =>
          val dj = World.trainDeepJoin(spark, c, jt, PlmConfig.mpnet, opt)
          val res = retrieve(spark, c, dj, kMax)
          println(f"${opt.name}%-26s ${scores(c, jt, res)}")
        }
      }
    }

  // --------------------------------------------- Tables 11-12 (cell shuffle)

  val shuffleRates: Seq[Double] = Seq(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

  /** Tables 11–12: cell-shuffle (data augmentation) ablation, DeepJoin-MPNet. */
  def tables11to12(spark: SparkSession): Unit =
    Seq[(JoinType, Int)]((Equi, 11), (Semantic(0.9), 12)).foreach { case (jt, t) =>
      println(s"== Table $t: cell shuffle ablation, ${jt.label}, DeepJoin-MPNet")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        println(s"-- ${cfg.name}: precision@k | ndcg@k, k=${ks.mkString(",")}")
        shuffleRates.foreach { rate =>
          val dj = World.trainDeepJoin(spark, c, jt, PlmConfig.mpnet,
            shuffleRate = Some(rate))
          val res = retrieve(spark, c, dj, kMax)
          println(f"rate=$rate%-21.1f ${scores(c, jt, res)}")
        }
      }
    }
}
