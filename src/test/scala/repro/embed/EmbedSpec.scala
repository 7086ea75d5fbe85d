package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.lake.{LakeConfig, LakeGenerator, Words}
import repro.text.{Contextualizer, TextOption}

class VecOpsSpec extends AnyFunSuite {
  test("dot product") {
    assert(VecOps.dot(Array(1f, 2f, 3f), Array(4f, 5f, 6f)) == 32f)
  }
  test("norm") {
    assert(math.abs(VecOps.norm(Array(3f, 4f)) - 5f) < 1e-6)
  }
  test("normalizeInPlace yields a unit vector") {
    val v = Array(3f, 4f)
    VecOps.normalizeInPlace(v)
    assert(math.abs(VecOps.norm(v) - 1f) < 1e-6)
  }
  test("normalizeInPlace is a no-op on the zero vector") {
    val v = Array(0f, 0f)
    VecOps.normalizeInPlace(v)
    assert(v.toSeq == Seq(0f, 0f))
  }
  test("l2 distance") {
    assert(math.abs(VecOps.l2(Array(0f, 0f), Array(3f, 4f)) - 5f) < 1e-6)
  }
  test("cosine of identical unit vectors is 1") {
    val v = Array(0.6f, 0.8f)
    assert(math.abs(VecOps.cosine(v, v) - 1f) < 1e-6)
  }
  test("cosine of orthogonal vectors is 0") {
    assert(math.abs(VecOps.cosine(Array(1f, 0f), Array(0f, 1f))) < 1e-6)
  }
  test("axpy accumulates") {
    val y = Array(1f, 1f)
    VecOps.axpy(2f, Array(1f, 2f), y)
    assert(y.toSeq == Seq(3f, 5f))
  }
  test("scale multiplies in place") {
    val v = Array(1f, 2f)
    VecOps.scale(v, 3f)
    assert(v.toSeq == Seq(3f, 6f))
  }
}

class HashEmbedderSpec extends AnyFunSuite {
  private val emb = new HashEmbedder(64, seed = 1L)

  test("embedding is deterministic") {
    assert(emb.embedToken("hello").toSeq == emb.embedToken("hello").toSeq)
  }
  test("embedText output is unit norm") {
    assert(math.abs(VecOps.norm(emb.embedText(Seq("a", "b", "c"))) - 1f) < 1e-5)
  }
  test("different seeds give different embeddings") {
    val e2 = new HashEmbedder(64, seed = 2L)
    assert(emb.embedToken("hello").toSeq != e2.embedToken("hello").toSeq)
  }
  test("similar strings are closer than dissimilar ones") {
    val a = emb.embedText(Seq("ministry"))
    val typo = emb.embedText(Seq("minstry"))
    val other = emb.embedText(Seq("zebra"))
    assert(VecOps.l2(a, typo) < VecOps.l2(a, other))
  }
  test("without char n-grams, typos are not closer") {
    val word = new HashEmbedder(64, seed = 1L, useCharNgrams = false)
    val a = word.embedText(Seq("ministry"))
    val typo = word.embedText(Seq("minstry"))
    // word-level hashing treats them as unrelated tokens
    assert(VecOps.cosine(a, typo) < 0.5f)
  }
  test("unrelated tokens are near-orthogonal on average") {
    val r = new scala.util.Random(3)
    val words = Vector.fill(50)(Words.word(r))
    val cs = for (i <- 0 until 20; j <- (i + 1) until 20) yield
      math.abs(VecOps.cosine(emb.embedText(Seq(words(i))), emb.embedText(Seq(words(j)))))
    assert(cs.sum / cs.size < 0.35)
  }
  test("embedText of empty input is the zero vector") {
    assert(VecOps.norm(emb.embedText(Seq.empty)) == 0f)
  }
}

class CellEmbedderSpec extends AnyFunSuite {
  private val ce = CellEmbedder.default
  private val cfg = LakeConfig.webtable()

  test("cell vectors are unit norm") {
    assert(math.abs(VecOps.norm(ce.embed("some value")) - 1f) < 1e-5)
  }
  test("embedColumn preserves multiset size") {
    assert(ce.embedColumn(Seq("a", "b", "a")).length == 3)
  }
  test("identical cells embed identically") {
    assert(ce.embed("foo bar").toSeq == ce.embed("foo bar").toSeq)
  }
  test("light variants fall within tau = 0.9 on average") {
    val ds = (0 until 100).map { i =>
      val c = Words.entityCanonical(cfg, i % 8, i)
      val typo = if (c.length > 4) c.substring(0, 2) + c.substring(3) else c
      VecOps.l2(ce.embed(c), ce.embed(typo))
    }
    assert(ds.sum / ds.size < 0.9)
  }
  test("heavy variants (abbreviations) exceed tau = 0.9 on average") {
    val ds = (0 until 100).map { i =>
      val c = Words.entityCanonical(cfg, i % 8, i)
      val ab = c.split(' ').map(w => w.take(3) + ".").mkString(" ")
      VecOps.l2(ce.embed(c), ce.embed(ab))
    }
    assert(ds.sum / ds.size > 0.9)
  }
  test("distinct entities are far apart on average") {
    val r = new scala.util.Random(2)
    val ds = (0 until 100).map { _ =>
      val a = Words.entityCanonical(cfg, r.nextInt(8), r.nextInt(200))
      val b = Words.entityCanonical(cfg, r.nextInt(8), 200 + r.nextInt(200))
      VecOps.l2(ce.embed(a), ce.embed(b))
    }
    assert(ds.sum / ds.size > 1.1)
  }
}

class ColumnEmbedderSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()
  private val col = LakeGenerator.genColumn(cfg, 11)
  private val ctx = new Contextualizer(TextOption.default)
  private val ctxCol = new Contextualizer(TextOption.Col)

  test("fastText embedding is unit norm and deterministic") {
    val ft = new FastTextEmbedder()
    val v = ft.embed(col)
    assert(math.abs(VecOps.norm(v) - 1f) < 1e-5)
    assert(v.toSeq == ft.embed(col).toSeq)
  }
  test("fastText is order-insensitive") {
    val ft = new FastTextEmbedder()
    val shuffled = repro.train.TrainingData.shuffleCells(col, 9L)
    assert(VecOps.cosine(ft.embed(col), ft.embed(shuffled)) > 0.999f)
  }
  test("PLM embedding is unit norm with the configured dimension") {
    val e = new PlmEmbedder(PlmConfig.mpnet, ctx)
    val v = e.embed(col)
    assert(v.length == PlmConfig.mpnet.dim)
    assert(math.abs(VecOps.norm(v) - 1f) < 1e-5)
  }
  test("PLM embedding is deterministic") {
    val e = new PlmEmbedder(PlmConfig.distilbert, ctx)
    assert(e.embed(col).toSeq == e.embed(col).toSeq)
  }
  test("PLM is order-sensitive (positional mixing)") {
    val e = new PlmEmbedder(PlmConfig.bert, ctxCol)
    val shuffled = repro.train.TrainingData.shuffleCells(col, 9L)
    val cos = VecOps.cosine(e.embed(col), e.embed(shuffled))
    assert(cos < 0.9999f && cos > 0.8f, s"expected mild order sensitivity, cos=$cos")
  }
  test("parallel (GPU-sim) encoding equals sequential encoding") {
    val cpu = new PlmEmbedder(PlmConfig.mpnet, ctx, parallel = false)
    val gpu = new PlmEmbedder(PlmConfig.mpnet, ctx, parallel = true)
    assert(java.util.Arrays.equals(cpu.embed(col), gpu.embed(col)))
  }
  test("same-anchor columns embed closer than cross-domain columns") {
    val cols = (0 until 800).map(i => LakeGenerator.genColumn(cfg, i))
    val grouped = cols.filter(_.anchor >= 0).groupBy(c => (c.domain, c.anchor))
      .values.filter(_.size >= 2).head.take(2)
    val cross = cols.find(_.domain != grouped(0).domain).get
    val e = new PlmEmbedder(PlmConfig.mpnet, ctx)
    val same = VecOps.cosine(e.embed(grouped(0)), e.embed(grouped(1)))
    val diff = VecOps.cosine(e.embed(grouped(0)), e.embed(cross))
    assert(same > diff)
  }
  test("the contextualization option changes the embedding") {
    val a = new PlmEmbedder(PlmConfig.mpnet, ctx).embed(col)
    val b = new PlmEmbedder(PlmConfig.mpnet, ctxCol).embed(col)
    assert(VecOps.cosine(a, b) < 0.9999f)
  }
  test("a head changes the embedding dimension and output") {
    // A truncating head: the embedder's dimension and output follow dOut.
    val head = new EmbeddingHead {
      def dIn: Int = PlmConfig.mpnet.dim
      def dOut: Int = 128
      def apply(x: Array[Float]): Array[Float] =
        VecOps.normalizeInPlace(x.take(dOut))
    }
    val e = new PlmEmbedder(PlmConfig.mpnet, ctx, Some(head))
    assert(e.dim == 128)
    assert(e.embed(col).length == 128)
  }
  test("a diagonal head with non-zero gains changes the output") {
    val head = new repro.train.DiagonalHead(PlmConfig.mpnet.dim)
    val plain = new PlmEmbedder(PlmConfig.mpnet, ctx).embed(col)
    val e = new PlmEmbedder(PlmConfig.mpnet, ctx, Some(head))
    assert(e.dim == PlmConfig.mpnet.dim)
    assert(VecOps.cosine(plain, e.embed(col)) > 0.99999f) // zero gains: identity
    head.g.indices.foreach(i => head.g(i) = if (i % 2 == 0) 0.5f else -0.5f)
    val v = e.embed(col)
    assert(v.length == e.dim)
    assert(VecOps.cosine(plain, v) < 0.9999f)
  }
  test("idf pooling changes the cell encoding when frequencies differ") {
    val freq = Map(col.cells.head -> 10000L)
    val ctxF = new Contextualizer(TextOption.Col, frequency = freq)
    val plain = new PlmEmbedder(PlmConfig.mpnet, ctxF, idfPooling = false)
    val idf = new PlmEmbedder(PlmConfig.mpnet, ctxF, idfPooling = true)
    assert(VecOps.cosine(plain.embed(col), idf.embed(col)) < 0.99999f)
  }
  test("TaBERT embedding is unit norm and metadata-heavy") {
    val t = new TabertEmbedder()
    val v = t.embed(col)
    assert(math.abs(VecOps.norm(v) - 1f) < 1e-5)
    // Changing the title moves TaBERT more than changing a deep cell.
    val titleChanged = col.copy(tableTitle = "completely different words")
    val cellChanged = col.copy(cells = col.cells.updated(col.cells.size - 1, "zzz"))
    val dTitle = VecOps.l2(v, t.embed(titleChanged))
    val dCell = VecOps.l2(v, t.embed(cellChanged))
    assert(dTitle > dCell)
  }
  test("empty column embeds without error") {
    val empty = col.copy(cells = Vector.empty, entities = Vector.empty)
    Seq[ColumnEmbedder](new FastTextEmbedder(), new TabertEmbedder(),
      new PlmEmbedder(PlmConfig.mpnet, ctx)).foreach { e =>
      val v = e.embed(empty)
      assert(v.length == e.dim)
    }
  }
}
