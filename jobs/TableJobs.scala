package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._

/** spark-submit entrypoint for the paper's evaluation tables.
  * Usage: spark-submit --class repro.jobs.TableJobs <jar> <table>
  * where <table> is one of 2, 3, 4-6, 7, 8, 9-10, 11-12, 13, 14, 15.
  */
object TableJobs {
  private val tables: Seq[(String, SparkSession => Unit)] = Seq(
    "2" -> StatsAndExpertBench.table2,
    "3" -> AccuracyBench.table3,
    "4-6" -> AccuracyBench.tables4to6,
    "7" -> StatsAndExpertBench.table7,
    "8" -> AccuracyBench.table8,
    "9-10" -> AccuracyBench.tables9to10,
    "11-12" -> AccuracyBench.tables11to12,
    "13" -> TimingBench.table13,
    "14" -> TimingBench.table14,
    "15" -> TimingBench.table15)

  def main(args: Array[String]): Unit =
    tables.find(t => args.headOption.contains(t._1)) match {
      case Some((id, run)) =>
        val spark = JobSession.create(s"table$id")
        try run(spark) finally spark.stop()
      case None =>
        Console.err.println(
          s"usage: repro.jobs.TableJobs <table>, one of: ${tables.map(_._1).mkString(", ")}")
        sys.exit(2)
    }
}
