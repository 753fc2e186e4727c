package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Harness, Workloads}

/** spark-submit entrypoint reproducing Table 3 (efficiency: wall time per
  * dataset × distance function × algorithm, with the GBP+KPF pruning
  * pipeline of Algorithm 3).
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    // spark-submit supplies spark.master; fall back to local[*] for runMain.
    val builder = SparkSession.builder()
      .appName("repro-table3")
    val spark = (if (sys.props.contains("spark.master")) builder
                 else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]")))
      .getOrCreate()
    val rows = Harness.table3(spark, Seq(Workloads.porto, Workloads.xian, Workloads.beijing))
    println("=== Table 3: Efficiency of Algorithms ===")
    println(Harness.formatTable3(rows))
    spark.stop()
  }
}
