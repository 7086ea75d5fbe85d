package repro.bench

import org.apache.spark.sql.SparkSession

/** Creates every SparkSession: the spark-submit entrypoints in jobs/ and
  * the test and bench suites (`SparkSpec`) all start Spark here. Spark's
  * INFO logging is very chatty, so the log level is WARN. Test and bench
  * JVMs are at WARN from the start (`src/test/resources/log4j2.properties`);
  * `setLogLevel` only takes effect once the context has started.
  */
object JobSession {
  def create(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
