<?php $s = <<<'EOT'
raw $notinterp \n {$x}
EOT;
