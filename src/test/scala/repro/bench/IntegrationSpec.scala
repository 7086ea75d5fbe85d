package repro.bench

import repro.SparkSpec
import repro.core.DeepJoin
import repro.embed.{FastTextEmbedder, PlmConfig}
import repro.lake.{LakeConfig, LakeGenerator}
import repro.text.TextOption
import scala.collection.mutable

/** End-to-end pipeline integration at toy scale: corpus → labels → training
  * → index → retrieval → metrics. The bench suites run the full-scale
  * versions; this guards the plumbing in the unit-test run.
  */
class WorldIntegrationSpec extends SparkSpec {
  private val cfg = LakeConfig.webtable(seed = 99L) // distinct cache key
  private lazy val c = World.corpus(spark, cfg, nRepo = 400, nTrain = 200, nQuery = 5)

  test("corpus has disjoint repo/train/query id spaces") {
    val repoIds = c.repo.map(_.id).toSet
    val trainIds = c.train.map(_.id).toSet
    val qIds = c.queries.map(_.id).toSet
    assert(repoIds.intersect(trainIds).isEmpty)
    assert(repoIds.intersect(qIds).isEmpty)
  }
  test("cell frequency counts columns containing each value") {
    val v = c.repo.head.cells.head
    val expected = c.repo.count(_.cells.contains(v))
    assert(c.cellFrequency(v) == expected)
  }
  test("exact equi ground truth is populated and correctly ordered") {
    val ex = World.exact(c, Equi, 10)
    assert(ex.nonEmpty)
    ex.values.foreach { ranked =>
      val jns = ranked.map(_._2)
      assert(jns == jns.sorted.reverse)
    }
    c.queries.foreach { q =>
      val brute = c.repo.map(x => (x.id, repro.join.Joinability.equiJn(q.cells, x.cells)))
        .filter(_._2 > 0).sortBy { case (id, jn) => (-jn, id) }.take(10)
      assert(ex(q.id) == brute, s"query ${q.id}")
    }
  }
  test("exact semantic ground truth is populated") {
    val ex = World.exact(c, Semantic(0.9), 10)
    assert(ex.values.exists(_.nonEmpty))
  }
  test("equi positives exist at the paper's threshold") {
    assert(World.positives(spark, c, Equi).nonEmpty)
  }
  test("trainDeepJoin produces a working fine-tuned embedder") {
    val dj = World.trainDeepJoin(spark, c, Equi, PlmConfig.distilbert,
      TextOption.default, epochs = 1)
    assert(dj.head.isDefined)
    val v = dj.embed(c.queries.head)
    assert(v.length == dj.dim)
  }
  test("retrieval + evaluation produces sane precision for fastText") {
    val idx = DeepJoin.buildIndex(spark, c.repoDs, new FastTextEmbedder())
    val res = World.retrieveAll(idx, c.queries, 10)
    val ex = World.exact(c, Equi, 10)
    val m = World.evalRetrieval(c, res, ex, Seq(10), World.jnLookup(c, Equi))
    val (p, n) = m(10)
    assert(p >= 0.0 && p <= 1.0)
    assert(n >= 0.0 && n <= 1.5) // model NDCG can slightly exceed 1 on ties
  }
  test("retrievals are memoized by embedder instance") {
    val shared = AccuracyBench.retrieve(spark, c, World.fastText, 10)
    assert(AccuracyBench.retrieve(spark, c, World.fastText, 10) eq shared)
    val own = AccuracyBench.retrieve(spark, c, new FastTextEmbedder(), 10)
    assert(own ne shared)
    assert(own == shared)
  }
  test("two calls of equiMethods on one corpus reach the same retrievals") {
    val first = AccuracyBench.equiMethods(spark, c, c, 10)
    val second = AccuracyBench.equiMethods(spark, c, c, 10)
    first.zip(second).foreach { case ((name, a), (_, b)) => assert(a eq b, name) }
  }
  test("jnLookup agrees with direct computation (equi)") {
    val look = World.jnLookup(c, Equi)
    val q = c.queries.head
    val x = c.repo.head
    assert(look(q, x.id) == repro.join.Joinability.equiJn(q.cells, x.cells))
  }
  test("defaultShuffleRate matches the paper's best settings") {
    assert(World.defaultShuffleRate("webtable", Equi) == 0.2)
    assert(World.defaultShuffleRate("webtable", Semantic(0.9)) == 0.3)
    assert(World.defaultShuffleRate("wikitable", Equi) == 0.3)
    assert(World.defaultShuffleRate("wikitable", Semantic(0.9)) == 0.4)
  }
  test("entity joinability ('expert' truth) is within [0, 1] and symmetric bounds") {
    val q = c.queries.head
    c.repo.take(20).foreach { x =>
      val jn = StatsAndExpertBench.entityJn(q, x)
      assert(jn >= 0.0 && jn <= 1.0)
    }
  }
  test("corpora that differ only in the LakeConfig seed are memoized apart") {
    val other = World.corpus(spark, cfg.copy(seed = 98L), nRepo = 400, nTrain = 200, nQuery = 5)
    assert(other.repo != c.repo)
    assert(other.cfg.seed == 98L)
  }
  test("a corpus that shares the training set gets exact top-k from its own repository") {
    World.exact(c, Equi, 10)
    val repoDs = LakeGenerator.columns(spark, cfg, 400, idOffset = 1000000L).cache()
    val repo = repoDs.collect().toSeq.sortBy(_.id)
    val own = World.Corpus(cfg, repo, c.train, c.queries, repoDs, c.trainDs)
    val ids = World.exact(own, Equi, 10).values.flatten.map(_._1).toSet
    assert(ids.nonEmpty)
    assert(ids.subsetOf(repo.map(_.id).toSet))
  }
  test("World keeps one memo, and clearing it as djbench does retrains an equal model") {
    // djbench's clearWorldCaches: every mutable.Map field declared on World.
    def mapFields(o: AnyRef) = o.getClass.getDeclaredFields
      .filter(f => classOf[mutable.Map[_, _]].isAssignableFrom(f.getType))
    val fields = mapFields(World)
    assert(fields.length == 1)
    assert(mapFields(AccuracyBench).isEmpty && mapFields(TimingBench).isEmpty)
    def train() = World.trainDeepJoin(spark, c, Equi, PlmConfig.distilbert,
      TextOption.default, epochs = 1)
    val first = train()
    assert(train() eq first)
    fields.foreach { f =>
      f.setAccessible(true)
      f.get(World).asInstanceOf[mutable.Map[_, _]].clear()
    }
    val second = train()
    assert(second ne first)
    val q = c.queries.head
    assert(java.util.Arrays.equals(first.embed(q), second.embed(q)))
  }
}
