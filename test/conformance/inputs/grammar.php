<!DOCTYPE html>
<title><?= $title, "!" ?></title>
<?php
/* Every statement and expression form the parser accepts, once. */
use Vendor_Package;
const LIMIT = 10, NAME = 'grammar';
;
{ $block = 1; }

// literals
$i = 42 + 0x1F + 017;
$f = 3.14 + 1e3 + .5 + 2.5E-2;
$s = 'single \' quoted' . "double \t \x41 \101 \u{1F600}";
$t = "plain $v, index $a[k] $a[0] $a[$k], prop $o->p, complex {$a['x']->y} ${legacy}";
$h = <<<EOT
heredoc $v and {$w[1]}
EOT;
$n = <<<'EOT'
nowdoc $v
EOT;
$c = true || false && null;
$cmd = `ls $dir`;

// variables, members, calls
$$name = $$$deep;
$a[] = $a[1][2];
$o->p = $o->$q . $o->{'r' . 's'};
$x = C::$sp . C::K . C::class . static::K;
f(1, ...$rest);
$fn($x);
$o->m($x)->n();
C::sm($x);
$a['k']($x);
$o = new C;
$o = new C(1, 2);
$o = new $cls($x);
$d = clone $o;

// operators
$b = $x + $y - $z * $w / $u % $v ** 2 ** 3;
$b = $x . $y;
$b = $x == $y or $x != $y and $x === $y xor $x !== $y;
$b = $x < $y || $x > $y || $x <= $y || $x >= $y || ($x <=> $y) > 0;
$b = $x & $y | $x ^ $y | $x << 2 | $x >> 1;
$b = $x instanceof C;
$b = $x ?? $y ?? 'default';
$b = !$x; $b = -$x; $b = +$x; $b = ~$x; $b = @f();
++$x; --$x; $x++; $x--;
$x = 1; $x .= 'a'; $x += 1; $x -= 1; $x *= 2; $x /= 2; $x %= 3; $x **= 2;
$x &= 1; $x |= 1; $x ^= 1; $x <<= 1; $x >>= 1; $x ??= 0;
$r = &$x;
$r = &$a['k'];
$t = $x ? $y : $z;
$t = $x ?: $z;
$k = (int) $x . (integer) $x . (float) $x . (double) $x . (real) $x;
$k = (string) $x . (bool) $x . (boolean) $x . (array) $x . (object) $x;

// special forms
$e = isset($a, $b['k']) && empty($c);
exit;
exit();
die('bye');
print 'p';
include 'a.php';
include_once 'b.php';
require 'c.php';
require_once 'd.php';
list($p, , $q) = $pair;
$arr = array(1, 'k' => 2, &$ref);
$arr = [1, 'k' => [2, 3]];
$cl = function ($a, &$b) use ($x, &$y) { return $a . $b . $x . $y; };
$cl = static function () { return 1; };

// control flow, brace syntax
if ($a) { echo 1; } elseif ($b) { echo 2; } else if ($c) { echo 3; } else { echo 4; }
if ($a) echo 'single';
while ($i < 10) { $i++; continue; }
do { $i--; } while ($i > 0);
for ($i = 0, $j = 1; $i < 10, $j < 10; $i++, $j++) { break; }
for (;;) { break 1; }
foreach ($arr as $v) { continue 2; }
foreach ($arr as $k => $v) {}
foreach ($arr as &$v) {}
foreach ($arr as $k => &$v) {}
switch ($x) { case 1: echo 'one'; break; case 'two': default: echo 'other'; }

// control flow, alternative syntax
if ($a): echo 1; elseif ($b): echo 2; else: echo 3; endif;
while ($i): $i--; endwhile;
for ($i = 0; $i < 2; $i++): echo $i; endfor;
foreach ($arr as $v): echo $v; endforeach;
switch ($x): case 1: echo 'a'; break; default: echo 'b'; endswitch;

// declarations
function plain() { return; }
function &by_ref(array $a, ?C $c = null, int &$n = 0, ...$rest): int { return $n; }
function scoped() {
    global $g, $h;
    static $count = 0, $other;
    unset($g, $h['k']);
    throw new Exception('x');
}
try { risky(); } catch (A | B $e) { echo $e; } catch (C) { } finally { cleanup(); }
try { risky(); } catch (Exception $e) { }
interface I { public function m($x); }
abstract class Base extends Root implements I, J {
    const ONE = 1, TWO = 2;
    var $legacy;
    public $pub = 'p';
    protected static $count = 0;
    private $priv;
    abstract protected function todo();
    final public static function make() { return new self(); }
    public function m($x) { return $this->priv . self::ONE . parent::m($x); }
}
final class Leaf extends Base { function todo() {} }
?>
trailing <b>html</b>
