package repro.core

import repro.SparkSpec
import repro.embed.{FastTextEmbedder, PlmConfig, PlmEmbedder, VecOps}
import repro.lake.{LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}

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
  test("encodeAll agrees with driver-side encoding") {
    val viaSpark = DeepJoin.encodeAll(spark, repoDs, embedder).toMap
    val local = DeepJoin.encodeAllLocal(repo, embedder).toMap
    repo.take(10).foreach { c =>
      assert(viaSpark(c.id).toSeq == local(c.id).toSeq)
    }
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
