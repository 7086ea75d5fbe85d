package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed._
import repro.join.{Joinability, Josie, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}
import repro.train.{MlpBaseline, Trainer, TrainingData}
import scala.collection.concurrent.TrieMap
import scala.collection.parallel.CollectionConverters._

/** Which joinability definition an experiment targets. */
sealed trait JoinType { def label: String }
case object Equi extends JoinType { val label = "equi" }
final case class Semantic(tau: Double) extends JoinType {
  def label = f"semantic-tau$tau%.1f"
}

/** Shared experiment world for the benches: corpora, exact ground truth,
  * trained models and retrieval evaluation, cached so that the per-table
  * suites reuse one another's work.
  *
  * Default sizes are the paper's scaled by ~1/170 for the accuracy corpora
  * (train 30K→1.2K, repository 1M→6K, 50→25 queries); `BENCH_SCALE`
  * multiplies them. Every bench prints the scale it ran at.
  */
object World {

  val scale: Double = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble
  def trainN: Int = math.max(200, (1200 * scale).toInt)
  def repoN: Int = math.max(1000, (6000 * scale).toInt)
  def queryN: Int = math.max(10, (25 * scale).toInt)

  /** Positive-pair threshold t (Section 5.1). */
  val posThreshold = 0.7

  /** A corpus: repository (search target), training subset, query workload.
    * The training subset and the repository are disjoint id ranges of the
    * same generative process; queries use a salted id stream (no leakage),
    * mirroring the paper's sampling protocol.
    */
  final case class Corpus(
      cfg: LakeConfig,
      repo: Seq[LakeColumn],
      train: Seq[LakeColumn],
      queries: Seq[LakeColumn],
      repoDs: Dataset[LakeColumn],
      trainDs: Dataset[LakeColumn]) {
    lazy val repoById: Map[Long, LakeColumn] = repo.map(c => c.id -> c).toMap
    lazy val cellFrequency: Map[String, Long] = {
      val m = new java.util.HashMap[String, Long]()
      repo.foreach(_.cells.distinct.foreach(c => m.merge(c, 1L, _ + _)))
      import scala.jdk.CollectionConverters._
      m.asScala.toMap
    }
  }

  /** The one memo of every bench result; each key is a tuple that starts
    * with its kind and names its corpus by value: the whole [[LakeConfig]]
    * (seed included) or the [[Corpus]] itself, whose `Dataset` fields compare
    * by reference, so corpora that share a name and sizes never share an
    * entry. Memoized computations nest (`exact` calls `pexeso`,
    * `trainDeepJoin` calls `positives`), which `TrieMap` allows: its
    * `getOrElseUpdate` runs `f` outside the map. djbench clears World by
    * reflecting over its `mutable.Map` fields, so the memo must stay one.
    */
  private val memos = TrieMap.empty[Product, Any]

  private[bench] def memo[A](key: Product)(f: => A): A =
    memos.getOrElseUpdate(key, f).asInstanceOf[A]

  def corpus(spark: SparkSession, cfg: LakeConfig,
             nRepo: Int = repoN, nTrain: Int = trainN,
             nQuery: Int = queryN): Corpus =
    memo(("corpus", cfg, nRepo, nTrain, nQuery)) {
      val repoDs = LakeGenerator.columns(spark, cfg, nRepo).cache()
      val trainDs = LakeGenerator.columns(spark, cfg, nTrain, idOffset = 500000000L).cache()
      val repo = repoDs.collect().toSeq.sortBy(_.id)
      val train = trainDs.collect().toSeq.sortBy(_.id)
      val queries = LakeGenerator.queriesLocal(cfg, nQuery)
      Corpus(cfg, repo, train, queries, repoDs, trainDs)
    }

  // ---------------------------------------------------------------- labels

  /** Exact top-k per query, the ground truth of every accuracy table
    * (Section 5.1), from the paper's exact method for the join type: JOSIE
    * for equi-joins, PEXESO for semantic joins; data-parallel over queries.
    */
  def exact(c: Corpus, jt: JoinType, k: Int): Map[Long, Seq[(Long, Double)]] =
    memo(("exact", c, jt, k)) {
      val topK: Seq[String] => Seq[(Long, Double)] = jt match {
        case Equi => val ix = josie(c); ix.topK(_, k)
        case Semantic(tau) => val ix = pexeso(c); ix.topK(_, tau, k)
      }
      c.queries.par.map(q => q.id -> topK(q.cells)).seq.toMap
    }

  /** The JOSIE index over the corpus repository. */
  def josie(c: Corpus): Josie =
    memo(("josie", c)) {
      Josie.build(c.repo.map(col => (col.id, col.cells)))
    }

  /** The PEXESO index over the corpus repository (shared across τ). */
  def pexeso(c: Corpus): Pexeso =
    memo(("pexeso", c)) {
      Pexeso.build(c.repo.map(col => (col.id, col.cells)))
    }

  /** True joinability of (query, column) under the join type. */
  def jnLookup(c: Corpus, jt: JoinType): (LakeColumn, Long) => Double = jt match {
    case Equi =>
      (q, id) => c.repoById.get(id)
        .map(x => Joinability.equiJn(q.cells, x.cells)).getOrElse(0.0)
    case Semantic(tau) =>
      val px = pexeso(c)
      (q, id) => px.jnOf(q.cells, tau, id)
  }

  // ------------------------------------------------------------- training

  /** Positive pairs for the corpus under the join type (memoized). */
  def positives(spark: SparkSession, c: Corpus, jt: JoinType): Seq[TrainingData.Pair] =
    memo(("positives", c, jt)) {
      jt match {
        case Equi => TrainingData.equiPositives(spark, c.trainDs, posThreshold)
        case Semantic(tau) =>
          TrainingData.semanticPositives(c.train, tau, posThreshold)
      }
    }

  /** The paper's best shuffle rates (Tables 11–12). */
  def defaultShuffleRate(corpusName: String, jt: JoinType): Double =
    (corpusName, jt) match {
      case ("webtable", Equi) => 0.2
      case ("webtable", _) => 0.3
      case ("wikitable", Equi) => 0.3
      case _ => 0.4
    }

  /** Cap on training pairs, to keep ablation sweeps tractable. */
  val maxTrainPairs = 20000

  /** At most [[maxTrainPairs]] of `pos`, a seeded random sample if more. */
  private def capped(pos: Seq[TrainingData.Pair], seed: Long): Seq[TrainingData.Pair] =
    if (pos.size <= maxTrainPairs) pos
    else new scala.util.Random(seed).shuffle(pos.toVector).take(maxTrainPairs)

  /** Fine-tuning learning rate shared by every table (Trainer.Config). */
  private val learningRate = 2e-3

  /** Fine-tune a DeepJoin model: featurize (Spark), augment, train head.
    * The last `epochs / 2` epochs batch group-first (hard negatives).
    * `shuffleRate` defaults to the paper's best rate for the corpus.
    */
  def trainDeepJoin(spark: SparkSession, c: Corpus, jt: JoinType,
                    plm: PlmConfig,
                    option: TextOption = TextOption.default,
                    shuffleRate: Option[Double] = None,
                    epochs: Int = 2): PlmEmbedder = {
    val rate = shuffleRate.getOrElse(defaultShuffleRate(c.cfg.name, jt))
    memo(("model", c, jt, plm, option, rate, epochs)) {
      // DeepJoin's fine-tuned encoder pools cells idf-weighted (the paper's
      // "attention focuses on the cells more probable to match"); raw PLM
      // baselines do not (their pre-training never saw the repository).
      val ctx = new Contextualizer(option, frequency = c.cellFrequency)
      val base = new PlmEmbedder(plm, ctx, head = None, idfPooling = true)

      val pos0 = positives(spark, c, jt)
      val pos = capped(pos0, seed = 0xca11L)
      val augmented = TrainingData.augment(pos, rate, seed = 0x5fffL)

      // Featurize every training column and every shuffled copy on Spark.
      // `base` has no head, so `embed` gives the pooled base features; the
      // encoder never reads `id`, so each copy carries its key -(i + 1).
      import spark.implicits._
      val shuffledXs = augmented.drop(pos.size).zipWithIndex
        .map { case (p, i) => p.x.copy(id = -(i + 1L)) }
      val feats: Map[Long, Array[Float]] =
        DeepJoin.encodeAll(spark, spark.createDataset(c.train ++ shuffledXs), base).toMap

      val trainSeed = Words.mixSeed(c.cfg.name, jt.label, option.name, rate)
      val trainCfg = Trainer.Config(epochs = epochs, lr = learningRate,
        hardEpochs = epochs / 2, seed = trainSeed)

      // Masking uses the original x id even for shuffled copies (the
      // shuffled column has the same joinability structure as its source).
      val knownPos: Set[(Long, Long)] = pos0.map(p => (p.x.id, p.y.id)).toSet
      val examples = augmented.zipWithIndex.map { case (p, i) =>
        val xKey = if (i < pos.size) p.x.id else -(i - pos.size + 1L)
        Trainer.Example(feats(xKey), feats(p.y.id), p.x.id, p.y.id, p.x.domain)
      }.toIndexedSeq
      val (head, losses) =
        Trainer.train(examples, base.cfg.dim, trainCfg, knownPositives = knownPos)
      val tagged = losses.zipWithIndex.map { case (l, e) =>
        f"$l%.3f/" + (if (trainCfg.grouped(e)) "grouped" else "shuffled")
      }
      Console.err.println(
        f"[train] ${c.cfg.name}/${jt.label}/${option.name}/r=$rate%.1f pos=${augmented.size} " +
        s"losses=${tagged.mkString(",")}")
      new PlmEmbedder(plm, ctx, Some(head), idfPooling = true)
    }
  }

  private object Words {
    def mixSeed(parts: Any*): Long =
      parts.map(_.toString.hashCode.toLong).foldLeft(0x7a11L)((a, b) => a * 31 + b)
  }

  /** The MLP baseline trained for the corpus (equi tables only). */
  def trainMlp(spark: SparkSession, c: Corpus): MlpBaseline =
    memo(("mlp", c)) {
      val pos = capped(positives(spark, c, Equi), seed = 0x3bL)
      MlpBaseline.trainFromPairs(fastText, pos, c.train,
        (a, b) => Joinability.equiJn(a.cells, b.cells))
    }

  // ------------------------------------------------------------ retrieval

  /** The one fastText embedder of every bench, so that memo keys holding
    * it (retrievals, timing embeddings and indexes) match across tables.
    */
  val fastText: FastTextEmbedder = new FastTextEmbedder()

  /** The one TaBERT embedder of every bench; it holds no corpus state. */
  val tabert: TabertEmbedder = new TabertEmbedder()

  /** Retrieve top-k ids for every query. */
  def retrieveAll(idx: DeepJoinIndex, queries: Seq[LakeColumn],
                  k: Int): Map[Long, Seq[Long]] =
    queries.map { q =>
      val (res, _) = DeepJoin.search(idx, q, k)
      q.id -> res.map(_._1)
    }.toMap

  // -------------------------------------------------------------- metrics

  /** Mean precision@k and NDCG@k over queries for a ranked retrieval;
    * `lookup` gives the true joinability of a retrieved column outside the
    * exact top-k (e.g. [[jnLookup]]).
    */
  def evalRetrieval(c: Corpus, model: Map[Long, Seq[Long]],
                    exact: Map[Long, Seq[(Long, Double)]], ks: Seq[Int],
                    lookup: (LakeColumn, Long) => Double): Map[Int, (Double, Double)] = {
    import repro.eval.Metrics
    val queries = c.queries
    ks.map { k =>
      val (ps, ns) = queries.map { q =>
        val ex = exact.getOrElse(q.id, Seq.empty)
        val exIds = ex.map(_._1)
        val mod = model.getOrElse(q.id, Seq.empty)
        val jnKnown = ex.toMap
        val jnOf = (id: Long) => jnKnown.getOrElse(id, lookup(q, id))
        (Metrics.precisionAtK(mod, exIds, k), Metrics.ndcgAtK(mod, exIds, k, jnOf))
      }.unzip
      k -> (Metrics.mean(ps), Metrics.mean(ns))
    }.toMap
  }
}
