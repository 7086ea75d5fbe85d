package repro.text

/** The seven column-to-text transformation options of the paper's Table 1.
  *
  * Each option controls which metadata is prepended to the concatenated cell
  * values before the text is fed to the column encoder.
  */
sealed abstract class TextOption(val name: String) extends Serializable {
  def useTitle: Boolean = false
  def useColName: Boolean = false
  def useStat: Boolean = false
  def useContext: Boolean = false
  override def toString: String = name
}

object TextOption {
  case object Col extends TextOption("col")
  case object ColnameCol extends TextOption("colname-col") {
    override def useColName = true
  }
  case object ColnameColContext extends TextOption("colname-col-context") {
    override def useColName = true; override def useContext = true
  }
  case object ColnameStatCol extends TextOption("colname-stat-col") {
    override def useColName = true; override def useStat = true
  }
  case object TitleColnameCol extends TextOption("title-colname-col") {
    override def useTitle = true; override def useColName = true
  }
  case object TitleColnameColContext extends TextOption("title-colname-col-context") {
    override def useTitle = true; override def useColName = true; override def useContext = true
  }
  case object TitleColnameStatCol extends TextOption("title-colname-stat-col") {
    override def useTitle = true; override def useColName = true; override def useStat = true
  }

  /** All options, in the order of the paper's Table 1. */
  val all: Seq[TextOption] = Seq(
    Col, ColnameCol, ColnameColContext, ColnameStatCol,
    TitleColnameCol, TitleColnameColContext, TitleColnameStatCol)

  /** The paper's best option (used as DeepJoin's default). */
  val default: TextOption = TitleColnameStatCol
}
