package repro.text

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.lake.{LakeConfig, LakeGenerator}

class TokenizerSpec extends AnyFunSuite {
  test("splits on punctuation and whitespace") {
    assert(Tokenizer.tokenize("a b, c.d").toSeq == Seq("a", "b", "c", "d"))
  }
  test("lowercases") {
    assert(Tokenizer.tokenize("FooBar BAZ").toSeq == Seq("foobar", "baz"))
  }
  test("keeps digits") {
    assert(Tokenizer.tokenize("abc123 45").toSeq == Seq("abc123", "45"))
  }
  test("empty input gives no tokens") {
    assert(Tokenizer.tokenize("").isEmpty)
    assert(Tokenizer.tokenize("...,;").isEmpty)
  }
  test("countTokens agrees with tokenize length (property)") {
    val prop = Prop.forAll(Gen.asciiPrintableStr) { s =>
      Tokenizer.countTokens(s) == Tokenizer.tokenize(s).length
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }
  test("countTokens on plain words") {
    assert(Tokenizer.countTokens("one two three") == 3)
  }
}

class TextOptionSpec extends AnyFunSuite {
  test("there are seven options, as in Table 1") {
    assert(TextOption.all.size == 7)
  }
  test("names match the paper's Table 1") {
    assert(TextOption.all.map(_.name) == Seq(
      "col", "colname-col", "colname-col-context", "colname-stat-col",
      "title-colname-col", "title-colname-col-context", "title-colname-stat-col"))
  }
  test("default is the paper's best option") {
    assert(TextOption.default == TextOption.TitleColnameStatCol)
  }
  test("field flags are consistent with names") {
    assert(!TextOption.Col.useTitle && !TextOption.Col.useColName)
    assert(TextOption.ColnameCol.useColName && !TextOption.ColnameCol.useTitle)
    assert(TextOption.ColnameColContext.useContext)
    assert(TextOption.ColnameStatCol.useStat)
    assert(TextOption.TitleColnameCol.useTitle && TextOption.TitleColnameCol.useColName)
    assert(TextOption.TitleColnameStatCol.useStat && TextOption.TitleColnameStatCol.useTitle)
  }
}

class ContextualizerSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()
  private val col = LakeGenerator.genColumn(cfg, 7)

  test("col option contains only the cells") {
    val t = new Contextualizer(TextOption.Col).text(col)
    assert(t.contains(col.cells.head))
    assert(!t.contains(col.tableTitle))
  }
  test("colname-col starts with the column name") {
    val t = new Contextualizer(TextOption.ColnameCol).text(col)
    assert(t.startsWith(col.colName))
  }
  test("title options start with the table title") {
    Seq(TextOption.TitleColnameCol, TextOption.TitleColnameStatCol,
      TextOption.TitleColnameColContext).foreach { o =>
      assert(new Contextualizer(o).text(col).startsWith(col.tableTitle))
    }
  }
  test("context options end with the table context") {
    Seq(TextOption.ColnameColContext, TextOption.TitleColnameColContext).foreach { o =>
      assert(new Contextualizer(o).text(col).endsWith(col.context))
    }
  }
  test("stat options include the value count") {
    val t = new Contextualizer(TextOption.ColnameStatCol).text(col)
    assert(t.contains(s"nvals${col.cells.size}"))
  }
  test("stat text uses fused tokens, not bare numerals") {
    val t = new Contextualizer(TextOption.TitleColnameStatCol).text(col)
    assert(t.contains("maxw") && t.contains("minw") && t.contains("avgw"))
  }
  test("cells are comma-delimited in the rendered text") {
    val t = new Contextualizer(TextOption.Col).text(col)
    assert(t.contains(col.cells.take(2).mkString(", ")))
  }
  test("render returns fields matching the option") {
    val r = new Contextualizer(TextOption.TitleColnameStatCol).render(col)
    assert(r.title.contains(col.tableTitle))
    assert(r.colname.contains(col.colName))
    assert(r.stat.isDefined && r.context.isEmpty)
    val r2 = new Contextualizer(TextOption.Col).render(col)
    assert(r2.title.isEmpty && r2.colname.isEmpty && r2.stat.isEmpty && r2.context.isEmpty)
  }
  test("short columns keep all cells") {
    val r = new Contextualizer(TextOption.Col).render(col)
    assert(r.cells == col.cells)
  }
  test("token cap truncates long columns") {
    val long = col.copy(cells = Vector.tabulate(500)(i => s"cellvalue$i"),
      entities = Vector.tabulate(500)(_.toLong))
    val ctx = new Contextualizer(TextOption.Col, maxTokens = 64)
    val r = ctx.render(long)
    assert(r.cells.size < 500)
    assert(Tokenizer.countTokens(ctx.text(long)) <= 80)
  }
  test("frequency map selects high-frequency cells first under the cap") {
    val long = col.copy(cells = Vector.tabulate(200)(i => s"v$i"),
      entities = Vector.tabulate(200)(_.toLong))
    val freq = Map("v199" -> 1000L, "v198" -> 999L)
    val ctx = new Contextualizer(TextOption.Col, maxTokens = 16, frequency = freq)
    val r = ctx.render(long)
    assert(r.cells.take(2).toSet == Set("v199", "v198"))
  }
  test("without a frequency map, column order is preserved under the cap") {
    val long = col.copy(cells = Vector.tabulate(200)(i => s"v$i"),
      entities = Vector.tabulate(200)(_.toLong))
    val ctx = new Contextualizer(TextOption.Col, maxTokens = 16)
    assert(ctx.render(long).cells.head == "v0")
  }
  test("text is deterministic") {
    val ctx = new Contextualizer(TextOption.TitleColnameStatCol)
    assert(ctx.text(col) == ctx.text(col))
  }
  test("each option produces distinct text for a metadata-rich column") {
    val texts = TextOption.all.map(o => new Contextualizer(o).text(col))
    assert(texts.distinct.size == texts.size)
  }
}
