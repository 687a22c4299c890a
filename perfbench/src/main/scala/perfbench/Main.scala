package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import org.apache.spark.sql.SparkSession

/** What one invocation of a workload produced. `spans` holds every traced
  * span as a JSON object (empty when tracing is off).
  */
final case class Outcome(attempted: Int, failed: Int, metrics: Map[String, Double], spans: Seq[String], summary: String)

/** Settings shared by every workload of one invocation. */
final case class Ctx(spark: SparkSession, sessionS: Double, seed: Long, seconds: Double, trace: Boolean, workDir: File) {
  def referenceDir: File = new File(workDir, "reference")

  /** With tracing on, half the time measures untraced reps (the base of
    * `trace.overhead_frac`) and half measures traced reps.
    */
  def untracedSeconds: Double = if (trace) seconds / 2 else seconds
}

object Bench {
  /** Data generations in set-up; `setup_s` counts their median. */
  val SetupReps = 3
  /** Untimed reps after which the JIT has compiled the fit's hot loops. */
  val WarmupReps = 2
  val MinReps = 3
  /** Heap measurements per serial run: Spark's cleaner thread can free
    * set-up garbage between two readings, so take a median of five.
    */
  val HeapReps = 5
  /** Each Spark heap measurement costs a fit; its readings are steadier. */
  val SparkHeapReps = 3

  def zeros(prefix: String): Map[String, Double] =
    Metrics.perLayer.map(_._1).filter(_.startsWith(prefix)).map(_ -> 0.0).toMap
}

/** Entry point: `--workload NAME --seed N --seconds S --trace 0|1
  * [--work-dir DIR]`. Prints a one-line summary, then the result as one
  * JSON object on the last line of standard output.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: File)

  def parse(argv: Array[String]): Args = {
    val kv = argv.toList.grouped(2).map {
      case List(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "work-dir")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name = need("workload")
    val w = Workloads.byName(name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(w, need("seed").toLong, seconds, trace, new File(kv.getOrElse("work-dir", ".bench_build/perfbench")))
  }

  def session(workDir: File): SparkSession = {
    val s = SparkSession.builder()
      .master("local[4]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Run one workload in the given session. */
  def runWorkload(spark: SparkSession, sessionS: Double, a: Args): Outcome = {
    val ctx = Ctx(spark, sessionS, a.seed, a.seconds, a.trace, a.workDir)
    a.workload match {
      case w: SerialWorkload => SerialBench.run(ctx, w)
      case w: SparkWorkload => SparkBench.run(ctx, w)
    }
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val status =
      try {
        val a = parse(argv)
        a.workDir.mkdirs()
        val spark = session(a.workDir)
        val sessionS = (System.nanoTime() - t0) / 1e9
        try {
          val out = runWorkload(spark, sessionS, a)
          if (out.spans.nonEmpty) {
            val f = new File(a.workDir, s"traces/${a.workload.name}-seed${a.seed}.json")
            f.getParentFile.mkdirs()
            Files.write(f.toPath, out.spans.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
          }
          println(out.summary + f" fail_frac=${out.failed.toDouble / out.attempted}%.4f")
          println(Metrics.resultLine(out.failed == 0, out.attempted, out.failed, a.trace, out.metrics))
          0
        } finally spark.stop()
      } catch {
        case e: Throwable =>
          Console.err.println(s"perfbench: ${e.getMessage}")
          e.printStackTrace()
          1
      }
    System.out.flush()
    sys.exit(status)
  }
}
