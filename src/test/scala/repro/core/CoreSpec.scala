package repro.core

import repro.SparkSpec
import repro.embed.{ColumnEmbedder, FastTextEmbedder, PlmConfig, PlmEmbedder}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}
import repro.train.DiagonalHead

class DeepJoinSpec extends SparkSpec {
  private val cfg = LakeConfig.webtable()
  private lazy val repo = (0 until 300).map(i => LakeGenerator.genColumn(cfg, i))
  private lazy val queries = LakeGenerator.queriesLocal(cfg, 5)
  private lazy val embedder = new FastTextEmbedder()

  private lazy val repoDs = {
    import spark.implicits._
    spark.createDataset(repo)
  }

  test("encodeAll returns one embedding per column, sorted by id") {
    val e = DeepJoin.encodeAll(spark, repoDs, embedder)
    assert(e.length == repo.size)
    assert(e.map(_._1).toSeq == e.map(_._1).sorted.toSeq)
    assert(e.forall(_._2.length == embedder.dim))
  }
  /** djbench's model shape: MPNet-sim with idf pooling over the
    * repository's cell frequencies and a diagonal head with non-zero gains.
    */
  private def trainedStylePlm(): PlmEmbedder = {
    val freq = repo.flatMap(_.cells.distinct).groupBy(identity).map { case (v, vs) => v -> vs.size.toLong }
    val head = new DiagonalHead(PlmConfig.mpnet.dim)
    val r = new scala.util.Random(0x6a1L)
    head.g.indices.foreach(i => head.g(i) = (r.nextGaussian() * 0.3).toFloat)
    new PlmEmbedder(PlmConfig.mpnet, new Contextualizer(TextOption.default, frequency = freq),
      head = Some(head), idfPooling = true)
  }

  /** True when both encodings have the same ids and bit-identical vectors. */
  private def sameEncoding(a: Array[(Long, Array[Float])], b: Array[(Long, Array[Float])]): Boolean =
    a.map(_._1).sameElements(b.map(_._1)) &&
      a.zip(b).forall { case ((_, x), (_, y)) => java.util.Arrays.equals(x, y) }

  test("encodeAll agrees with driver-side encoding") {
    val p = spark.sparkContext.defaultParallelism
    val inputs = Seq(1 -> repoDs.coalesce(1), p -> repoDs, 3 * p -> repoDs.repartition(3 * p))
    Seq(embedder, trainedStylePlm()).foreach { emb =>
      val local = DeepJoin.encodeAllLocal(repo, emb)
      inputs.foreach { case (parts, ds) =>
        assert(ds.rdd.getNumPartitions == parts)
        assert(sameEncoding(DeepJoin.encodeAll(spark, ds, emb), local), s"${emb.name}, $parts partitions")
      }
    }
  }
  test("one PlmEmbedder instance encodes bit-identically from 4 threads at once") {
    // encodeAll broadcasts the embedder, and in local mode every task
    // thread gets the same instance, including its lazily built FFN table.
    val cols = repo.take(40)
    val want = DeepJoin.encodeAllLocal(cols, trainedStylePlm())
    val shared = trainedStylePlm() // its FFN table is not built yet
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val futures = (0 until 4).map { _ =>
        pool.submit(new java.util.concurrent.Callable[Array[(Long, Array[Float])]] {
          def call() = { start.await(); DeepJoin.encodeAllLocal(cols, shared) }
        })
      }
      start.countDown()
      futures.foreach(f => assert(sameEncoding(f.get(), want)))
    } finally pool.shutdown()
  }
  test("a failing embed makes encodeAll throw, and the next encodeAll is correct") {
    val bad = repo(123).id
    val e = intercept[Exception](DeepJoin.encodeAll(spark, repoDs, new DeepJoinSpec.FailOn(embedder, bad)))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains(s"column $bad")), e.toString)
    assert(sameEncoding(DeepJoin.encodeAll(spark, repoDs, embedder), DeepJoin.encodeAllLocal(repo, embedder)))
  }
  test("buildIndex + search returns k results with ascending distance") {
    val idx = DeepJoin.buildIndex(spark, repoDs, embedder)
    val (res, t) = DeepJoin.search(idx, queries.head, 10)
    assert(res.size == 10)
    assert(res.map(_._2) == res.map(_._2).sorted)
    assert(t.encodeMs >= 0 && t.annMs >= 0)
  }
  test("a repository column retrieves itself first") {
    val idx = DeepJoin.buildIndex(spark, repoDs, embedder)
    val (res, _) = DeepJoin.search(idx, repo(7), 3)
    assert(res.head._1 == repo(7).id)
    assert(res.head._2 < 1e-5)
  }
  test("HNSW search approximates brute-force kNN on the embeddings") {
    val emb = DeepJoin.encodeAll(spark, repoDs, embedder)
    val idx = DeepJoin.buildIndex(emb, embedder)
    val vecs = emb.map(_._2).toIndexedSeq
    val recalls = queries.map { q =>
      val qv = embedder.embed(q)
      val approx = idx.hnsw.search(qv, 10, ef = 128).map(p => emb(p._1)._1).toSet
      val exact = repro.ann.BruteForce.search(vecs, qv, 10).map(p => emb(p._1)._1).toSet
      approx.intersect(exact).size.toDouble / exact.size
    }
    assert(recalls.sum / recalls.size > 0.85)
  }
  private lazy val plm = new PlmEmbedder(PlmConfig.distilbert, new Contextualizer(TextOption.default))
  private lazy val plmIndex = DeepJoin.buildIndex(spark, repoDs, plm)

  test("search with a trained-style PLM embedder works end to end") {
    val (res, t) = DeepJoin.search(plmIndex, queries.head, 5)
    assert(res.size == 5)
    assert(t.totalMs > 0)
  }
  test("search over a shared graph with the parallel (GPU-sim) embedder returns the same ids") {
    val parallelPlm = new PlmEmbedder(plm.cfg, plm.ctx, plm.head, parallel = true,
      idfPooling = plm.idfPooling)
    val gpu = new DeepJoinIndex(plmIndex.hnsw, plmIndex.ids, parallelPlm)
    queries.foreach { q =>
      val (cpuRes, _) = DeepJoin.search(plmIndex, q, 10)
      val (gpuRes, _) = DeepJoin.search(gpu, q, 10)
      assert(gpuRes.map(_._1) == cpuRes.map(_._1), s"query ${q.id}")
    }
  }
  test("retrieved neighbors are dominated by the query's domain") {
    val idx = DeepJoin.buildIndex(spark, repoDs, embedder)
    val byId = repo.map(c => c.id -> c).toMap
    val fracs = queries.map { q =>
      val (res, _) = DeepJoin.search(idx, q, 10)
      res.count(r => byId(r._1).domain == q.domain).toDouble / res.size
    }
    assert(fracs.sum / fracs.size > 0.5)
  }
  test("empty repository is rejected") {
    assertThrows[IllegalArgumentException](
      DeepJoin.buildIndex(Array.empty, embedder))
  }
  test("timing breakdown sums to the total") {
    val idx = DeepJoin.buildIndex(spark, repoDs, embedder)
    val (_, t) = DeepJoin.search(idx, queries.head, 5)
    assert(math.abs(t.totalMs - (t.encodeMs + t.annMs)) < 1e-9)
  }
}

object DeepJoinSpec {
  /** Delegates to `inner` but throws on the column with id `bad`. */
  final class FailOn(inner: ColumnEmbedder, bad: Long) extends ColumnEmbedder {
    def name: String = inner.name
    def dim: Int = inner.dim
    def embed(col: LakeColumn): Array[Float] =
      if (col.id == bad) throw new IllegalStateException(s"column $bad") else inner.embed(col)
  }
}
